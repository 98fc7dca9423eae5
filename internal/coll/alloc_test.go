package coll_test

import (
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
	"bruckv/internal/mpi"
)

// Allocation-ceiling tests: every registered Alltoallv algorithm must
// hold a small per-rank allocation budget per collective call in steady
// state, in phantom mode at P=64 (the transport and bookkeeping cost,
// with no payload memory in the picture). Measured by differencing a
// long run against a one-call run in the same world, which cancels the
// O(P) per-run setup — goroutines, mailboxes, first-touch arena misses.
//
// The ceilings are per rank per call, set at roughly twice the measured
// steady state so a regression that reintroduces per-message or
// per-block allocation (the pre-pool transport paid both) fails clearly
// while allocator noise does not. The radix step loops take their
// state from the rank's resident scratch, so two-phase and
// zero-rotation measure 1.0-1.13 (the one object left is the call's
// phase mark) and their ceilings sit at twice the highest reading.
var allocCeilings = map[string]float64{
	"auto":            18,
	"hierarchical":    60,
	"padded-alltoall": 10,
	"padded-bruck":    7,
	"sloav":           14,
	"spreadout":       16,
	"two-phase":       2.3,
	"two-phase-r4":    2.3,
	"two-phase-r8":    2.3,
	"vendor":          16,
}

// uniformAllocCeilings are the same per-rank-per-call budgets for the
// zero-rotation uniform exchanges, which run the radix walk.
var uniformAllocCeilings = map[string]float64{
	"zerorotation":    2.3,
	"zerorotation-r4": 2.3,
	"zerorotation-r8": 2.3,
}

const (
	allocP     = 64
	allocN     = 64
	allocIters = 8
)

// allocsPerRankCall measures one rank's steady-state allocations per
// collective call in a phantom P=64 world: a long run differenced
// against a one-call run, after a warm-up. body runs on every rank: it
// builds its per-run arguments, then performs the collective calls
// times.
func allocsPerRankCall(t *testing.T, name string, body func(p *mpi.Proc, calls int) error) float64 {
	t.Helper()
	w, err := mpi.NewWorld(allocP, mpi.WithPhantom())
	if err != nil {
		t.Fatal(err)
	}
	run := func(calls int) uint64 {
		if err := w.Run(func(p *mpi.Proc) error { return body(p, calls) }); err != nil {
			t.Fatal(err)
		}
		return w.RunStats().Mallocs
	}
	run(1) // warm the arenas and free lists
	short := run(1)
	long := run(allocIters)
	if out := w.RunStats().Scratch.Outstanding(); out != 0 {
		t.Errorf("%s leaked %d scratch buffers", name, out)
	}
	return float64(int64(long)-int64(short)) / float64(allocIters-1) / allocP
}

func TestAlltoallvAllocCeilings(t *testing.T) {
	const P, n = allocP, allocN
	for _, name := range coll.Names(coll.NonUniformAlgorithms()) {
		ceiling, ok := allocCeilings[name]
		if !ok {
			t.Errorf("algorithm %q has no allocation ceiling; add one to allocCeilings", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			alg := coll.NonUniformAlgorithms()[name]
			perRank := allocsPerRankCall(t, name, func(p *mpi.Proc, calls int) error {
				sc := make([]int, P)
				sd := make([]int, P)
				rc := make([]int, P)
				rd := make([]int, P)
				for i := 0; i < P; i++ {
					sc[i], rc[i] = n, n
					sd[i], rd[i] = i*n, i*n
				}
				send := buffer.Phantom(P * n)
				recv := buffer.Phantom(P * n)
				for c := 0; c < calls; c++ {
					if err := alg(p, send, sc, sd, recv, rc, rd); err != nil {
						return err
					}
				}
				return nil
			})
			if perRank > ceiling {
				t.Errorf("%s allocates %.2f objects/rank/call, ceiling %.1f", name, perRank, ceiling)
			}
		})
	}
}

func TestAlltoallAllocCeilings(t *testing.T) {
	const P, n = allocP, allocN
	for _, name := range coll.Names(uniformAllocCeilings) {
		ceiling := uniformAllocCeilings[name]
		t.Run(name, func(t *testing.T) {
			alg := coll.UniformAlgorithms()[name]
			perRank := allocsPerRankCall(t, name, func(p *mpi.Proc, calls int) error {
				send := buffer.Phantom(P * n)
				recv := buffer.Phantom(P * n)
				for c := 0; c < calls; c++ {
					if err := alg(p, send, n, recv); err != nil {
						return err
					}
				}
				return nil
			})
			if perRank > ceiling {
				t.Errorf("%s allocates %.2f objects/rank/call, ceiling %.1f", name, perRank, ceiling)
			}
		})
	}
}

// persistentStartCeiling is the same per-rank-per-call budget for the
// replayed Start of a persistent two-phase handle, which allocates
// nothing of its own: readings of 0.02-0.12 are the runtime's, and the
// ceiling is twice the highest.
const persistentStartCeiling = 0.25

// TestPersistentStartAllocCeiling holds a frozen persistent handle's
// Start to the per-rank-per-call budget: the handle is built and
// started once (the recording Start) in each run, so differencing
// against a one-Start run leaves only the replays.
func TestPersistentStartAllocCeiling(t *testing.T) {
	const P, n = allocP, allocN
	perRank := allocsPerRankCall(t, "persistent", func(p *mpi.Proc, calls int) error {
		sc := make([]int, P)
		sd := make([]int, P)
		for i := 0; i < P; i++ {
			sc[i], sd[i] = n, i*n
		}
		h, err := coll.AlltoallvInit(p, 2, sc, sd, sc, sd)
		if err != nil {
			return err
		}
		defer h.Free()
		send := buffer.Phantom(P * n)
		recv := buffer.Phantom(P * n)
		for c := 0; c < calls; c++ {
			if err := h.Start(send, recv); err != nil {
				return err
			}
		}
		return nil
	})
	if perRank > persistentStartCeiling {
		t.Errorf("persistent Start allocates %.2f objects/rank/call, ceiling %.2f", perRank, persistentStartCeiling)
	}
}

// TestAlltoallvPoolBalanceReal runs the two headline algorithms with
// real payloads and asserts every pooled payload went back: the
// Gets-Puts balance of the transport pool is zero after a clean run.
func TestAlltoallvPoolBalanceReal(t *testing.T) {
	const (
		P = 16
		n = 128
	)
	for _, name := range []string{"spreadout", "two-phase"} {
		t.Run(name, func(t *testing.T) {
			alg := coll.NonUniformAlgorithms()[name]
			w, err := mpi.NewWorld(P, mpi.WithTransportChecks())
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *mpi.Proc) error {
				sc := make([]int, P)
				sd := make([]int, P)
				rc := make([]int, P)
				rd := make([]int, P)
				for i := 0; i < P; i++ {
					sc[i], rc[i] = n, n
					sd[i], rd[i] = i*n, i*n
				}
				send := buffer.New(P * n)
				recv := buffer.New(P * n)
				for i := 0; i < P; i++ {
					for b := 0; b < n; b++ {
						send.SetByte(i*n+b, byte(p.Rank()^i))
					}
				}
				if err := alg(p, send, sc, sd, recv, rc, rd); err != nil {
					return err
				}
				for i := 0; i < P; i++ {
					for b := 0; b < n; b++ {
						if got := recv.Byte(i*n + b); got != byte(i^p.Rank()) {
							t.Errorf("rank %d: block %d byte %d = %#x, want %#x",
								p.Rank(), i, b, got, byte(i^p.Rank()))
							return nil
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if out := w.RunStats().Pool.Outstanding(); out != 0 {
				t.Errorf("%s leaked %d payloads", name, out)
			}
		})
	}
}
