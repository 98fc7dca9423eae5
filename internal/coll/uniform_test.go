package coll

import (
	"fmt"
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// patByte is the ground-truth byte for position j of the block rank src
// sends to rank dst.
func patByte(src, dst, j int) byte {
	return byte(src*131 + dst*31 + j*7 + 3)
}

// fillUniform fills rank's send buffer: block d holds patByte(rank,d,·).
func fillUniform(send buffer.Buf, rank, P, n int) {
	for d := 0; d < P; d++ {
		for j := 0; j < n; j++ {
			send.SetByte(d*n+j, patByte(rank, d, j))
		}
	}
}

// checkUniformResult verifies recv block s equals patByte(s, rank, ·).
func checkUniformResult(t *testing.T, recv buffer.Buf, rank, P, n int, label string) {
	t.Helper()
	for s := 0; s < P; s++ {
		for j := 0; j < n; j++ {
			if got, want := recv.Byte(s*n+j), patByte(s, rank, j); got != want {
				t.Errorf("%s: rank %d recv block %d byte %d = %d, want %d", label, rank, s, j, got, want)
				return
			}
		}
	}
}

func runUniform(t *testing.T, alg Alltoall, P, n int, label string) {
	t.Helper()
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()), mpi.WithTransportChecks())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		send := buffer.New(P * n)
		recv := buffer.New(P * n)
		fillUniform(send, p.Rank(), P, n)
		orig := send.Clone()
		if err := alg(p, send, n, recv); err != nil {
			return err
		}
		if !buffer.Equal(send, orig) {
			t.Errorf("%s: rank %d: algorithm modified the send buffer", label, p.Rank())
		}
		checkUniformResult(t, recv, p.Rank(), P, n, label)
		return nil
	})
	if err != nil {
		t.Fatalf("%s P=%d n=%d: %v", label, P, n, err)
	}
	if out := w.RunStats().Pool.Outstanding(); out != 0 {
		t.Errorf("%s P=%d n=%d: %d payloads outstanding after the run", label, P, n, out)
	}
}

func TestUniformAlgorithmsCorrect(t *testing.T) {
	sizes := []struct{ P, n int }{
		{1, 4}, {2, 3}, {3, 5}, {4, 8}, {5, 1}, {7, 3}, {8, 16}, {16, 2}, {33, 3},
	}
	for name, alg := range UniformAlgorithms() {
		for _, sz := range sizes {
			t.Run(fmt.Sprintf("%s/P%d/n%d", name, sz.P, sz.n), func(t *testing.T) {
				runUniform(t, alg, sz.P, sz.n, name)
			})
		}
	}
}

func TestUniformZeroBlockSize(t *testing.T) {
	for name, alg := range UniformAlgorithms() {
		runUniform(t, alg, 4, 0, name+"-zero")
	}
}

func TestUniformReferenceAgainstItself(t *testing.T) {
	runUniform(t, NaiveAlltoall, 6, 4, "naive")
}

func TestFigure1BlockMovement(t *testing.T) {
	// The paper's Figure 1 setting: P=4, n=3. Exercise both basic and
	// modified Bruck and require identical results, which pins down the
	// rotation/communication index math the figure illustrates.
	for _, name := range []string{"basic", "modified"} {
		runUniform(t, UniformAlgorithms()[name], 4, 3, "fig1-"+name)
	}
}

func TestUniformValidation(t *testing.T) {
	w, err := mpi.NewWorld(2, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		small := buffer.New(4)
		ok := buffer.New(16)
		if err := BasicBruck(p, small, 8, ok); err == nil {
			t.Error("short send buffer not rejected")
		}
		if err := BasicBruck(p, ok, 8, small); err == nil {
			t.Error("short recv buffer not rejected")
		}
		if err := BasicBruck(p, ok, -1, ok); err == nil {
			t.Error("negative block size not rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBruckPhasesRecorded(t *testing.T) {
	const P, n = 8, 16
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		send, recv := buffer.New(P*n), buffer.New(P*n)
		fillUniform(send, p.Rank(), P, n)
		return BasicBruck(p, send, n, recv)
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := w.MaxPhase()
	for _, name := range []string{PhaseInitRotation, PhaseComm, PhaseFinalRotation} {
		if ph[name] <= 0 {
			t.Errorf("phase %q not recorded: %v", name, ph)
		}
	}

	// Zero-rotation must record no rotation phases at all.
	err = w.Run(func(p *mpi.Proc) error {
		send, recv := buffer.New(P*n), buffer.New(P*n)
		fillUniform(send, p.Rank(), P, n)
		return ZeroRotationBruck(p, send, n, recv)
	})
	if err != nil {
		t.Fatal(err)
	}
	ph = w.MaxPhase()
	if ph[PhaseInitRotation] != 0 || ph[PhaseFinalRotation] != 0 {
		t.Errorf("zero-rotation recorded rotation phases: %v", ph)
	}
}

// Figure 2a ordering at a representative configuration: zero-rotation is
// fastest among explicit-copy variants; datatype variants are slower
// than their explicit counterparts; zero-copy-dt is slowest.
func TestFigure2Ordering(t *testing.T) {
	const P, n = 64, 32
	timeOf := func(alg Alltoall) float64 {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			send, recv := buffer.New(P*n), buffer.New(P*n)
			fillUniform(send, p.Rank(), P, n)
			return alg(p, send, n, recv)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	a := UniformAlgorithms()
	basic, mod, zr := timeOf(a["basic"]), timeOf(a["modified"]), timeOf(a["zerorotation"])
	basicDT, modDT, zcDT := timeOf(a["basic-dt"]), timeOf(a["modified-dt"]), timeOf(a["zerocopy-dt"])
	if !(zr < mod && mod < basic) {
		t.Errorf("expected zerorotation < modified < basic, got %v %v %v", zr, mod, basic)
	}
	if basicDT <= basic || modDT <= mod {
		t.Errorf("datatype variants should be slower at 32-byte blocks: basic %v vs %v, modified %v vs %v",
			basicDT, basic, modDT, mod)
	}
	if !(zcDT > basicDT && zcDT > modDT) {
		t.Errorf("zero-copy-dt should be slowest: %v vs %v, %v", zcDT, basicDT, modDT)
	}
}

func TestUniformTimingDeterministic(t *testing.T) {
	const P, n = 16, 8
	run := func(alg Alltoall) float64 {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			send, recv := buffer.New(P*n), buffer.New(P*n)
			fillUniform(send, p.Rank(), P, n)
			return alg(p, send, n, recv)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	for name, alg := range UniformAlgorithms() {
		if a, b := run(alg), run(alg); a != b {
			t.Errorf("%s: time not deterministic: %v vs %v", name, a, b)
		}
	}
}

func TestSendSlots(t *testing.T) {
	// The blocks a binary Bruck step k sends are the radix-2 digit
	// slots of position k.
	for _, c := range []struct {
		P, k int
		want []int
	}{
		{8, 0, []int{1, 3, 5, 7}},
		{8, 1, []int{2, 3, 6, 7}},
		{6, 2, []int{4, 5}},
	} {
		if got := digitSlots(nil, c.P, 2, c.k, 1); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("digitSlots(%d,2,%d,1) = %v, want %v", c.P, c.k, got, c.want)
		}
	}
}

func TestCountsExchange(t *testing.T) {
	for _, P := range []int{1, 2, 5, 8, 13} {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			sc := make([]int, P)
			for d := 0; d < P; d++ {
				sc[d] = p.Rank()*1000 + d
			}
			rc := make([]int, P)
			if err := CountsExchange(p, sc, rc); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				if rc[s] != s*1000+p.Rank() {
					t.Errorf("P=%d rank %d: rc[%d] = %d, want %d", P, p.Rank(), s, rc[s], s*1000+p.Rank())
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
