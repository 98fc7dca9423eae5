package coll

import (
	"fmt"
	"testing"
	"testing/quick"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// Cross-algorithm property tests: every implementation of the same
// interface must agree byte-for-byte on arbitrary inputs.

// TestQuickUniformAgree runs all uniform algorithms on random (P, n,
// seed) configurations and demands identical receive buffers.
func TestQuickUniformAgree(t *testing.T) {
	algs := UniformAlgorithms()
	names := Names(algs)
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		P := int(pRaw)%10 + 1
		n := int(nRaw) % 24
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			return false
		}
		defer w.Close()
		err = w.Run(func(p *mpi.Proc) error {
			send := buffer.New(P * n)
			send.FillPattern(seed + uint64(p.Rank()))
			ref := buffer.New(P * n)
			if err := NaiveAlltoall(p, send, n, ref); err != nil {
				return err
			}
			for _, name := range names {
				got := buffer.New(P * n)
				if err := algs[name](p, send, n, got); err != nil {
					return err
				}
				if !buffer.Equal(got, ref) {
					return fmt.Errorf("rank %d: %s disagrees with the naive reference", p.Rank(), name)
				}
			}
			return nil
		})
		if err != nil {
			t.Logf("seed=%#x P=%d: %v", seed, P, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNonUniformAgree does the same for the Alltoallv family,
// including SLOAV and the padded variants, with independently random
// block-size matrices.
func TestQuickNonUniformAgree(t *testing.T) {
	algs := NonUniformAlgorithms()
	names := Names(algs)
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		P := int(pRaw)%9 + 1
		maxN := int(nRaw) % 32
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			return false
		}
		defer w.Close()
		err = w.Run(func(p *mpi.Proc) error {
			send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, seed)
			ref := buffer.New(rTotal)
			if err := NaiveAlltoallv(p, send, sc, sd, ref, rc, rd); err != nil {
				return err
			}
			for _, name := range names {
				got := buffer.New(rTotal)
				if err := algs[name](p, send, sc, sd, got, rc, rd); err != nil {
					return err
				}
				if !buffer.Equal(got, ref) {
					return fmt.Errorf("rank %d: %s disagrees with the naive reference", p.Rank(), name)
				}
			}
			return nil
		})
		if err != nil {
			t.Logf("seed=%#x P=%d: %v", seed, P, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// The two-phase algorithm's working buffer must never be consulted for
// blocks that were not yet exchanged; exercising extreme skew (one rank
// sends everything, everyone else nothing) probes that path.
func TestSkewedWorkloads(t *testing.T) {
	const P = 9
	cases := []func(rank, dst int) int{
		func(rank, dst int) int { // only rank 0 sends
			if rank == 0 {
				return 17
			}
			return 0
		},
		func(rank, dst int) int { // everyone sends only to rank 3
			if dst == 3 {
				return 9
			}
			return 0
		},
		func(rank, dst int) int { // ring: each rank sends only to next
			if dst == (rank+1)%P {
				return 31
			}
			return 0
		},
		func(rank, dst int) int { // triangular sizes
			return rank * dst
		},
	}
	for ci, sizes := range cases {
		for name, alg := range NonUniformAlgorithms() {
			w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *mpi.Proc) error {
				sc := make([]int, P)
				rc := make([]int, P)
				for d := 0; d < P; d++ {
					sc[d] = sizes(p.Rank(), d)
					rc[d] = sizes(d, p.Rank())
				}
				sd, st := ContigDispls(sc)
				rd, rt := ContigDispls(rc)
				send := buffer.New(st)
				for d := 0; d < P; d++ {
					for j := 0; j < sc[d]; j++ {
						send.SetByte(sd[d]+j, patByte(p.Rank(), d, j))
					}
				}
				got := buffer.New(rt)
				if err := alg(p, send, sc, sd, got, rc, rd); err != nil {
					return err
				}
				for s := 0; s < P; s++ {
					for j := 0; j < rc[s]; j++ {
						if got.Byte(rd[s]+j) != patByte(s, p.Rank(), j) {
							t.Errorf("case %d alg %s: rank %d block from %d wrong", ci, name, p.Rank(), s)
							return nil
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("case %d alg %s: %v", ci, name, err)
			}
		}
	}
}

// Non-contiguous user layouts: displacement arrays with gaps and
// reordered blocks must work (MPI allows any displacements).
func TestNonContiguousDisplacements(t *testing.T) {
	const P = 5
	for name, alg := range NonUniformAlgorithms() {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			sc := make([]int, P)
			rc := make([]int, P)
			for d := 0; d < P; d++ {
				sc[d] = 4
				rc[d] = 4
			}
			// Blocks laid out in reverse order with 3-byte gaps.
			sd := make([]int, P)
			rd := make([]int, P)
			for d := 0; d < P; d++ {
				sd[d] = (P - 1 - d) * 7
				rd[d] = (P - 1 - d) * 7
			}
			size := P*7 + 4
			send := buffer.New(size)
			for d := 0; d < P; d++ {
				for j := 0; j < 4; j++ {
					send.SetByte(sd[d]+j, patByte(p.Rank(), d, j))
				}
			}
			got := buffer.New(size)
			if err := alg(p, send, sc, sd, got, rc, rd); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				for j := 0; j < 4; j++ {
					if got.Byte(rd[s]+j) != patByte(s, p.Rank(), j) {
						t.Errorf("alg %s: rank %d block from %d byte %d wrong", name, p.Rank(), s, j)
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Repeated calls on the same world must be independent (no state leaks
// between collective invocations).
func TestRepeatedCollectiveCalls(t *testing.T) {
	const P = 6
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		for round := 0; round < 4; round++ {
			send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, 11, uint64(round)+77)
			got := buffer.New(rTotal)
			want := buffer.New(rTotal)
			if err := TwoPhaseBruck(p, send, sc, sd, got, rc, rd); err != nil {
				return err
			}
			if err := NaiveAlltoallv(p, send, sc, sd, want, rc, rd); err != nil {
				return err
			}
			if !buffer.Equal(got, want) {
				t.Errorf("round %d mismatch on rank %d", round, p.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
