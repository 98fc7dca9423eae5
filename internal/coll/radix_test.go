package coll

import (
	"fmt"
	"testing"
	"testing/quick"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

func TestDigitSlots(t *testing.T) {
	// P=9, r=3: position 0, digit 1 -> indices with i%3==1: 1,4,7.
	got := digitSlots(nil, 9, 3, 0, 1)
	if fmt.Sprint(got) != "[1 4 7]" {
		t.Errorf("digitSlots(9,3,0,1) = %v", got)
	}
	// position 1, digit 2 -> i/3==2: 6,7,8.
	got = digitSlots(nil, 9, 3, 1, 2)
	if fmt.Sprint(got) != "[6 7 8]" {
		t.Errorf("digitSlots(9,3,1,2) = %v", got)
	}
}

func TestDigitSlotsPartition(t *testing.T) {
	// Across the radix walk's steps, every index 1..P-1 appears exactly
	// once per nonzero digit of its base-r representation, and no step
	// exceeds the staging bound.
	for _, P := range []int{7, 16, 27, 30} {
		for _, r := range []int{2, 3, 4, 5} {
			count := make([]int, P)
			for it := newRadixWalk(P, 0, r, nil, nil); it.next(); {
				if n, bound := len(it.st.rel), maxDigitBlocks(P, r); n > bound {
					t.Errorf("P=%d r=%d step %d: %d blocks exceed maxDigitBlocks %d", P, r, it.si, n, bound)
				}
				for _, i := range it.st.rel {
					count[i]++
				}
			}
			for i := 1; i < P; i++ {
				digits := 0
				for x := i; x > 0; x /= r {
					if x%r != 0 {
						digits++
					}
				}
				if count[i] != digits {
					t.Errorf("P=%d r=%d i=%d: visited %d times, has %d nonzero digits", P, r, i, count[i], digits)
				}
			}
		}
	}
}

func TestRadixUniformCorrect(t *testing.T) {
	for _, r := range []int{2, 3, 4, 8} {
		alg := ZeroRotationBruckRadix(r)
		for _, sz := range []struct{ P, n int }{{1, 4}, {4, 8}, {9, 3}, {16, 5}, {27, 2}, {33, 3}} {
			runUniform(t, alg, sz.P, sz.n, fmt.Sprintf("zerorotation-r%d", r))
		}
	}
}

func TestRadixNonUniformCorrect(t *testing.T) {
	for _, r := range []int{2, 3, 4, 8} {
		alg := TwoPhaseBruckRadix(r)
		for _, c := range []struct {
			P, maxN int
			seed    uint64
		}{{1, 8, 1}, {4, 16, 2}, {9, 9, 3}, {16, 12, 4}, {33, 10, 5}} {
			runNonUniform(t, alg, c.P, c.maxN, c.seed, fmt.Sprintf("two-phase-r%d", r))
		}
	}
}

func TestRadixRejectsBadRadix(t *testing.T) {
	w, err := mpi.NewWorld(2, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		b := buffer.New(8)
		if err := ZeroRotationBruckRadix(1)(p, b, 4, b); err == nil {
			t.Error("radix 1 accepted (uniform)")
		}
		sc := []int{4, 4}
		sd := []int{0, 4}
		if err := TwoPhaseBruckRadix(0)(p, b, sc, sd, b, sc, sd); err == nil {
			t.Error("radix 0 accepted (non-uniform)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: radix-r two-phase matches the reference for random radices
// and sizes.
func TestQuickRadixMatchesReference(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw, rRaw uint8) bool {
		P := int(pRaw)%14 + 1
		maxN := int(nRaw) % 24
		r := int(rRaw)%6 + 2
		alg := TwoPhaseBruckRadix(r)
		ok := true
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			return false
		}
		err = w.Run(func(p *mpi.Proc) error {
			send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, seed)
			got := buffer.New(rTotal)
			want := buffer.New(rTotal)
			if err := alg(p, send, sc, sd, got, rc, rd); err != nil {
				return err
			}
			if err := NaiveAlltoallv(p, send, sc, sd, want, rc, rd); err != nil {
				return err
			}
			if !buffer.Equal(got, want) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The radix trade-off: higher radix means fewer hops per block (less
// total data) but more messages. At large-ish block sizes the data
// saving should win.
func TestRadixDataVolumeTradeoff(t *testing.T) {
	const P = 64
	bytesOf := func(alg Alltoallv) int64 {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()), mpi.WithPhantom())
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			sc := make([]int, P)
			rc := make([]int, P)
			for d := 0; d < P; d++ {
				sc[d] = 256
				rc[d] = 256
			}
			sd, st := ContigDispls(sc)
			rd, rt := ContigDispls(rc)
			return alg(p, buffer.Phantom(st), sc, sd, buffer.Phantom(rt), rc, rd)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.TotalBytes()
	}
	b2 := bytesOf(TwoPhaseBruckRadix(2))
	b8 := bytesOf(TwoPhaseBruckRadix(8))
	if b8 >= b2 {
		t.Errorf("radix 8 should move fewer bytes than radix 2: %d vs %d", b8, b2)
	}
	msgsOf := func(alg Alltoallv) int64 {
		w, _ := mpi.NewWorld(P, mpi.WithModel(machine.Theta()), mpi.WithPhantom())
		w.Run(func(p *mpi.Proc) error {
			sc := make([]int, P)
			rc := make([]int, P)
			for d := 0; d < P; d++ {
				sc[d] = 8
				rc[d] = 8
			}
			sd, st := ContigDispls(sc)
			rd, rt := ContigDispls(rc)
			return alg(p, buffer.Phantom(st), sc, sd, buffer.Phantom(rt), rc, rd)
		})
		return w.TotalMessages()
	}
	if m8, m2 := msgsOf(TwoPhaseBruckRadix(8)), msgsOf(TwoPhaseBruckRadix(2)); m8 <= m2 {
		t.Errorf("radix 8 should send more messages than radix 2: %d vs %d", m8, m2)
	}
}
