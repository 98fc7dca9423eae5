package bruckv

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{Auto, SpreadOut, Vendor, PaddedBruck, PaddedAlltoall, TwoPhaseBruck, SLOAVBaseline, TwoPhaseRadix4, TwoPhaseRadix8, Hierarchical} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: got %v err %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if !strings.Contains(Algorithm(99).String(), "99") {
		t.Error("unknown algorithm String should include the value")
	}
}

func TestNewWorldErrors(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewWorld(4, WithAlgorithm(Algorithm(42))); err == nil {
		t.Error("invalid algorithm accepted")
	}
	bad := Theta()
	bad.LatencyNs = -1
	if _, err := NewWorld(4, WithMachine(bad)); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestAlltoallUniform(t *testing.T) {
	const P, n = 9, 4
	w, err := NewWorld(P, WithMachine(ZeroCost()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		send := make([]byte, P*n)
		for d := 0; d < P; d++ {
			for j := 0; j < n; j++ {
				send[d*n+j] = byte(c.Rank()*17 + d*5 + j)
			}
		}
		recv := make([]byte, P*n)
		if err := c.Alltoall(send, n, recv); err != nil {
			return err
		}
		for s := 0; s < P; s++ {
			for j := 0; j < n; j++ {
				if recv[s*n+j] != byte(s*17+c.Rank()*5+j) {
					t.Errorf("rank %d block %d byte %d wrong", c.Rank(), s, j)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// End-to-end quickstart flow: counts exchange then Alltoallv under every
// concrete algorithm plus Auto.
func TestAlltoallvAllAlgorithms(t *testing.T) {
	const P = 12
	algs := []Algorithm{Auto, SpreadOut, Vendor, PaddedBruck, PaddedAlltoall, TwoPhaseBruck, SLOAVBaseline}
	for _, alg := range algs {
		w, err := NewWorld(P, WithMachine(ZeroCost()), WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			scounts := make([]int, P)
			for d := 0; d < P; d++ {
				scounts[d] = (c.Rank()*7+d*3)%11 + 1
			}
			sdispls, sTotal := Displacements(scounts)
			send := make([]byte, sTotal)
			for d := 0; d < P; d++ {
				for j := 0; j < scounts[d]; j++ {
					send[sdispls[d]+j] = byte(c.Rank()*31 + d*13 + j)
				}
			}
			rcounts := make([]int, P)
			if err := c.ExchangeCounts(scounts, rcounts); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				if want := (s*7+c.Rank()*3)%11 + 1; rcounts[s] != want {
					t.Errorf("alg %v rank %d: rcounts[%d]=%d want %d", alg, c.Rank(), s, rcounts[s], want)
				}
			}
			rdispls, rTotal := Displacements(rcounts)
			recv := make([]byte, rTotal)
			if err := c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				for j := 0; j < rcounts[s]; j++ {
					if recv[rdispls[s]+j] != byte(s*31+c.Rank()*13+j) {
						t.Errorf("alg %v rank %d: block from %d corrupt", alg, c.Rank(), s)
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("alg %v: %v", alg, err)
		}
	}
}

func TestPhantomWorldNilBuffers(t *testing.T) {
	const P = 32
	w, err := NewWorld(P, WithPhantom(), WithAlgorithm(TwoPhaseBruck))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		scounts := make([]int, P)
		rcounts := make([]int, P)
		for d := 0; d < P; d++ {
			scounts[d] = (c.Rank()+d)%64 + 1
			rcounts[d] = (d+c.Rank())%64 + 1
		}
		sdispls, _ := Displacements(scounts)
		rdispls, _ := Displacements(rcounts)
		return c.Alltoallv(nil, scounts, sdispls, nil, rcounts, rdispls)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxTimeNs() <= 0 {
		t.Error("no virtual time recorded")
	}
	if w.TotalBytes() <= 0 || w.TotalMessages() <= 0 {
		t.Error("no traffic recorded")
	}
}

// TestPhantomWorldExchangeCounts checks that counts, which drive
// control flow, arrive exact in a phantom world on both executors: the
// count exchange must not stage them in size-only scratch.
func TestPhantomWorldExchangeCounts(t *testing.T) {
	for _, ex := range []Executor{Goroutines, Events} {
		for _, P := range []int{4, 5} {
			w, err := NewWorld(P, WithPhantom(), WithExecutor(ex))
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *Comm) error {
				// Rank s sends s*P+d+1 to rank d, so every count is
				// distinct and nonzero.
				scounts := make([]int, P)
				for d := range scounts {
					scounts[d] = c.Rank()*P + d + 1
				}
				rcounts := make([]int, P)
				if err := c.ExchangeCounts(scounts, rcounts); err != nil {
					return err
				}
				for s, got := range rcounts {
					if want := s*P + c.Rank() + 1; got != want {
						return fmt.Errorf("rank %d: rcounts = %v, want rcounts[%d] = %d", c.Rank(), rcounts, s, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("%v P=%d: %v", ex, P, err)
			}
			w.Close()
		}
	}
}

func TestNilBufferRejectedInRealWorld(t *testing.T) {
	w, err := NewWorld(2, WithMachine(ZeroCost()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		sc := []int{1, 1}
		sd := []int{0, 1}
		if err := c.AlltoallvWith(SpreadOut, nil, sc, sd, nil, sc, sd); err == nil {
			t.Error("nil buffers accepted outside phantom world")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChooseAlgorithmRegimes(t *testing.T) {
	m := Theta()
	// Tiny blocks at moderate scale: padded Bruck (inequality 3 regime).
	if a := ChooseAlgorithm(256, 8, m); a != PaddedBruck {
		t.Errorf("N=8, P=256: chose %v, want padded-bruck", a)
	}
	// Small-to-moderate blocks at large P: a log-time two-phase variant
	// (the radix generalizations trade hops for messages, so any of them
	// may edge out the binary version).
	switch a := ChooseAlgorithm(1024, 256, m); a {
	case TwoPhaseBruck, TwoPhaseRadix4, TwoPhaseRadix8:
	default:
		t.Errorf("N=256, P=1024: chose %v, want a two-phase variant", a)
	}
	// Large blocks at large scale: the linear-time spread-out.
	if a := ChooseAlgorithm(32768, 4096, m); a != SpreadOut {
		t.Errorf("N=4096, P=32768: chose %v, want spreadout", a)
	}
}

func TestPredictNsPositive(t *testing.T) {
	m := Theta()
	algs := []Algorithm{SpreadOut, Vendor, PaddedBruck, PaddedAlltoall,
		TwoPhaseBruck, SLOAVBaseline, TwoPhaseRadix4, TwoPhaseRadix8}
	best := PredictNs(algs[0], 512, 128, m)
	for _, a := range algs {
		p := PredictNs(a, 512, 128, m)
		if p <= 0 {
			t.Errorf("PredictNs(%v) not positive", a)
		}
		if p < best {
			best = p
		}
	}
	// Auto's prediction is the minimum over its candidates.
	if p := PredictNs(Auto, 512, 128, m); p <= 0 || p > best {
		t.Errorf("PredictNs(Auto) = %v, want positive and <= best candidate %v", p, best)
	}
}

func TestCollectivesThroughFacade(t *testing.T) {
	const P = 5
	w, err := NewWorld(P, WithMachine(ZeroCost()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if got := c.AllreduceMaxInt(c.Rank() * 2); got != (P-1)*2 {
			t.Errorf("max = %d", got)
		}
		if got := c.AllreduceSumInt64(1); got != P {
			t.Errorf("sum = %d", got)
		}
		v := int64(0)
		if c.Rank() == 3 {
			v = 77
		}
		if got := c.BcastInt64(v, 3); got != 77 {
			t.Errorf("bcast = %d", got)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisplacements(t *testing.T) {
	d, total := Displacements([]int{3, 0, 5})
	if total != 8 || d[0] != 0 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("d=%v total=%d", d, total)
	}
}

// Property: the Auto path produces the same bytes as the explicit
// two-phase algorithm for arbitrary small workloads.
func TestQuickAutoMatchesExplicit(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		P := int(pRaw)%8 + 2
		w, err := NewWorld(P, WithMachine(ZeroCost()))
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(c *Comm) error {
			scounts := make([]int, P)
			rcounts := make([]int, P)
			for d := 0; d < P; d++ {
				scounts[d] = int(((seed >> (d % 8)) + uint64(c.Rank()*d)) % 16)
				rcounts[d] = int(((seed >> (c.Rank() % 8)) + uint64(d*c.Rank())) % 16)
			}
			sdispls, st := Displacements(scounts)
			rdispls, rt := Displacements(rcounts)
			send := make([]byte, st)
			for i := range send {
				send[i] = byte(seed + uint64(c.Rank()*i))
			}
			got := make([]byte, rt)
			want := make([]byte, rt)
			if err := c.Alltoallv(send, scounts, sdispls, got, rcounts, rdispls); err != nil {
				return err
			}
			if err := c.AlltoallvWith(TwoPhaseBruck, send, scounts, sdispls, want, rcounts, rdispls); err != nil {
				return err
			}
			for i := range got {
				if got[i] != want[i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallWithAllVariants(t *testing.T) {
	const P, n = 8, 4
	variants := []UniformAlgorithm{
		ZeroRotation, BasicBruckAlg, ModifiedBruckAlg,
		BasicBruckDT, ModifiedBruckDT, ZeroCopyBruckDT,
		PairwiseExchange, VendorUniform,
	}
	for _, alg := range variants {
		w, err := NewWorld(P, WithMachine(ZeroCost()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			send := make([]byte, P*n)
			for d := 0; d < P; d++ {
				for j := 0; j < n; j++ {
					send[d*n+j] = byte(c.Rank()*19 + d*7 + j)
				}
			}
			recv := make([]byte, P*n)
			if err := c.AlltoallWith(alg, send, n, recv); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				for j := 0; j < n; j++ {
					if recv[s*n+j] != byte(s*19+c.Rank()*7+j) {
						t.Errorf("%v: rank %d block %d wrong", alg, c.Rank(), s)
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
	// Invalid variant is rejected.
	w, _ := NewWorld(2, WithMachine(ZeroCost()))
	err := w.Run(func(c *Comm) error {
		if err := c.AlltoallWith(UniformAlgorithm(99), make([]byte, 8), 4, make([]byte, 8)); err == nil {
			t.Error("invalid uniform algorithm accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistentThroughFacade(t *testing.T) {
	const P = 6
	w, err := NewWorld(P, WithMachine(ZeroCost()), WithAlgorithm(TwoPhaseBruck))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		counts := make([]int, P)
		for d := range counts {
			counts[d] = 3
		}
		displs, total := Displacements(counts)
		h, err := c.AlltoallvInit(counts, displs, counts, displs)
		if err != nil {
			return err
		}
		defer h.Free()
		if h.MaxBlock() != 3 || h.Radix() != 2 {
			t.Errorf("MaxBlock = %d, Radix = %d; want 3 and the pinned 2", h.MaxBlock(), h.Radix())
		}
		send := make([]byte, total)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		recv := make([]byte, total)
		for round := 0; round < 2; round++ {
			if err := h.Start(send, recv); err != nil {
				return err
			}
		}
		for s := 0; s < P; s++ {
			for j := 0; j < 3; j++ {
				if recv[displs[s]+j] != byte(s+displs[c.Rank()]+j) {
					t.Errorf("rank %d block from %d wrong", c.Rank(), s)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTuningRoundTrip(t *testing.T) {
	tun, err := NewTuning("theta", []TuningCell{
		{P: 64, N: 16, Algorithm: PaddedBruck},
		{P: 64, N: 1024, Algorithm: TwoPhaseRadix4},
		{P: 256, N: 2048, Algorithm: SpreadOut},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tun.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTuning(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine() != "theta" || got.Len() != 3 {
		t.Errorf("round trip: machine %q len %d", got.Machine(), got.Len())
	}
	// Vendor is not an algorithm Auto can dispatch.
	if _, err := NewTuning("x", []TuningCell{{P: 8, N: 8, Algorithm: Vendor}}); err == nil {
		t.Error("non-dispatchable tuning cell accepted")
	}
}

// WithTuning must steer Auto's dispatch: the same workload forced to
// spread-out vs padded Bruck produces observably different exchanges
// (linear vs logarithmic message counts), both byte-correct.
func TestWithTuningSteersAuto(t *testing.T) {
	const P, N = 8, 16
	run := func(forced Algorithm) (int64, error) {
		tun, err := NewTuning("test", []TuningCell{{P: P, N: N, Algorithm: forced}})
		if err != nil {
			return 0, err
		}
		w, err := NewWorld(P, WithTuning(tun))
		if err != nil {
			return 0, err
		}
		err = w.Run(func(c *Comm) error {
			counts := make([]int, P)
			for d := range counts {
				counts[d] = N
			}
			displs, total := Displacements(counts)
			send := make([]byte, total)
			for i := range send {
				send[i] = byte(c.Rank() ^ i)
			}
			recv := make([]byte, total)
			if err := c.Alltoallv(send, counts, displs, recv, counts, displs); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				for j := 0; j < N; j++ {
					if recv[displs[s]+j] != byte(s^(displs[c.Rank()]+j)) {
						t.Errorf("forced %v: rank %d block from %d wrong", forced, c.Rank(), s)
						return nil
					}
				}
			}
			return nil
		})
		return w.TotalMessages(), err
	}
	spread, err := run(SpreadOut)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := run(PaddedBruck)
	if err != nil {
		t.Fatal(err)
	}
	if spread <= padded {
		t.Errorf("tuning did not steer dispatch: spread-out sent %d messages, padded %d", spread, padded)
	}
}
