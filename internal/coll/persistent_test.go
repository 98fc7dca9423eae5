package coll

import (
	"errors"
	"fmt"
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// TestPersistentMatchesFresh is the persistent differential: N
// executions of one AlltoallvInit handle must be byte-exact with N
// fresh TwoPhaseBruckRadix calls on the same workloads — in particular
// across the freeze boundary after the first Start.
func TestPersistentMatchesFresh(t *testing.T) {
	const P, maxN, iters = 9, 12, 4
	for _, r := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("r%d", r), func(t *testing.T) {
			fresh := TwoPhaseBruckRadix(r)
			w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()), mpi.WithTransportChecks())
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *mpi.Proc) error {
				send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, 7)
				h, err := AlltoallvInit(p, r, sc, sd, rc, rd)
				if err != nil {
					return err
				}
				if h.Radix() != r {
					t.Errorf("Radix() = %d, want %d", h.Radix(), r)
				}
				for it := 0; it < iters; it++ {
					got := buffer.New(rTotal)
					want := buffer.New(rTotal)
					if err := h.Start(send, got); err != nil {
						return fmt.Errorf("start %d: %w", it, err)
					}
					if err := fresh(p, send, sc, sd, want, rc, rd); err != nil {
						return err
					}
					if !buffer.Equal(got, want) {
						t.Errorf("r=%d rank %d iteration %d: persistent differs from fresh", r, p.Rank(), it)
					}
				}
				if got := h.Executions(); got != iters {
					t.Errorf("Executions() = %d, want %d", got, iters)
				}
				h.Free()
				h.Free() // idempotent
				if err := h.Start(send, buffer.New(rTotal)); !errors.Is(err, ErrHandleFreed) {
					t.Errorf("Start after Free: err = %v, want ErrHandleFreed", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPersistentMatchesReference runs one radix-2 handle several times
// with evolving payload contents under a fixed layout and checks every
// Start against the naive reference.
func TestPersistentMatchesReference(t *testing.T) {
	const P, maxN = 9, 13
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, 21)
		h, err := AlltoallvInit(p, 2, sc, sd, rc, rd)
		if err != nil {
			return err
		}
		defer h.Free()
		for round := 0; round < 3; round++ {
			for d := 0; d < P; d++ {
				for j := 0; j < sc[d]; j++ {
					send.SetByte(sd[d]+j, patByte(p.Rank(), d, j)+byte(round))
				}
			}
			got := buffer.New(rTotal)
			want := buffer.New(rTotal)
			if err := h.Start(send, got); err != nil {
				return err
			}
			if err := NaiveAlltoallv(p, send, sc, sd, want, rc, rd); err != nil {
				return err
			}
			if !buffer.Equal(got, want) {
				t.Errorf("round %d: persistent result differs from reference on rank %d", round, p.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanAmortizesSetup: over repeated exchanges with a fixed layout,
// a persistent radix-2 plan beats calling TwoPhaseBruck each time — the
// max-block Allreduce, the rotation index, and (after the first Start)
// the metadata phase are paid once.
func TestPlanAmortizesSetup(t *testing.T) {
	const P, maxN, rounds = 32, 64, 10
	run := func(persistent bool) float64 {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()), mpi.WithPhantom())
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			sc := make([]int, P)
			rc := make([]int, P)
			for d := 0; d < P; d++ {
				sc[d] = blockSize(31, p.Rank(), d, maxN)
				rc[d] = blockSize(31, d, p.Rank(), maxN)
			}
			sd, st := ContigDispls(sc)
			rd, rt := ContigDispls(rc)
			send := buffer.Phantom(st)
			recv := buffer.Phantom(rt)
			if persistent {
				h, err := AlltoallvInit(p, 2, sc, sd, rc, rd)
				if err != nil {
					return err
				}
				defer h.Free()
				for i := 0; i < rounds; i++ {
					if err := h.Start(send, recv); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < rounds; i++ {
				if err := TwoPhaseBruck(p, send, sc, sd, recv, rc, rd); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	if persistent, adhoc := run(true), run(false); persistent >= adhoc {
		t.Errorf("persistent execution (%v) should beat ad-hoc (%v) over %d rounds", persistent, adhoc, rounds)
	}
}

// TestPlanValidation: a persistent radix-2 plan rejects a self-block
// size mismatch at init and an undersized buffer at Start.
func TestPlanValidation(t *testing.T) {
	const P = 4
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		good := []int{2, 2, 2, 2}
		disp := []int{0, 2, 4, 6}
		bad := []int{2, 2, 2, 2}
		bad[p.Rank()] = 3
		if _, err := AlltoallvInit(p, 2, bad, disp, good, disp); err == nil {
			t.Error("self mismatch accepted")
		}
		h, err := AlltoallvInit(p, 2, good, disp, good, disp)
		if err != nil {
			return err
		}
		defer h.Free()
		if err := h.Start(buffer.New(4), buffer.New(8)); err == nil {
			t.Error("undersized send buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanSingleRank: on one rank a persistent plan is the self copy.
func TestPlanSingleRank(t *testing.T) {
	w, err := mpi.NewWorld(1, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		sc := []int{5}
		sd := []int{0}
		h, err := AlltoallvInit(p, 2, sc, sd, sc, sd)
		if err != nil {
			return err
		}
		defer h.Free()
		send := buffer.New(5)
		send.FillPattern(3)
		recv := buffer.New(5)
		if err := h.Start(send, recv); err != nil {
			return err
		}
		if !buffer.Equal(send, recv) {
			t.Error("single-rank plan should copy the self block")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentNewPayloadEachStart guards against stale frozen data:
// a Start after the freeze must transmit the send buffer's current
// bytes, not the first execution's.
func TestPersistentNewPayloadEachStart(t *testing.T) {
	const P, n = 6, 8
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		sc := make([]int, P)
		rc := make([]int, P)
		for i := range sc {
			sc[i], rc[i] = n, n
		}
		sd, st := ContigDispls(sc)
		rd, rt := ContigDispls(rc)
		h, err := AlltoallvInit(p, 3, sc, sd, rc, rd)
		if err != nil {
			return err
		}
		defer h.Free()
		send := buffer.New(st)
		recv := buffer.New(rt)
		for round := byte(0); round < 3; round++ {
			for d := 0; d < P; d++ {
				for j := 0; j < n; j++ {
					send.SetByte(sd[d]+j, byte(p.Rank())^byte(d)<<2^round)
				}
			}
			if err := h.Start(send, recv); err != nil {
				return err
			}
			for s := 0; s < P; s++ {
				for j := 0; j < n; j++ {
					want := byte(s) ^ byte(p.Rank())<<2 ^ round
					if got := recv.Byte(rd[s] + j); got != want {
						t.Errorf("round %d rank %d block %d byte %d = %#x, want %#x", round, p.Rank(), s, j, got, want)
						return nil
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentSkipsMetadataAfterFreeze measures the tentpole's win:
// once the first Start has frozen the block sizes, later Starts send
// half the messages (no metadata companion per sub-step) and finish in
// less virtual time.
func TestPersistentSkipsMetadataAfterFreeze(t *testing.T) {
	const P, maxN, r = 32, 64, 4
	msgsFor := func(starts int) int64 {
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()), mpi.WithPhantom())
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			_, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, 5)
			h, err := AlltoallvInit(p, r, sc, sd, rc, rd)
			if err != nil {
				return err
			}
			defer h.Free()
			for i := 0; i < starts; i++ {
				if err := h.Start(buffer.Phantom(span(sc, sd)), buffer.Phantom(rTotal)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.TotalMessages()
	}
	// Differencing cancels init and the recording first Start.
	frozenPerCall := msgsFor(4) - msgsFor(3)
	firstCall := msgsFor(1) - msgsFor(0)
	if frozenPerCall*2 > firstCall {
		t.Errorf("frozen Start sends %d messages, first (recording) Start %d; want at most half", frozenPerCall, firstCall)
	}

	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()), mpi.WithPhantom())
	if err != nil {
		t.Fatal(err)
	}
	var first, second float64
	err = w.Run(func(p *mpi.Proc) error {
		_, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, 5)
		h, err := AlltoallvInit(p, r, sc, sd, rc, rd)
		if err != nil {
			return err
		}
		defer h.Free()
		send := buffer.Phantom(span(sc, sd))
		recv := buffer.Phantom(rTotal)
		p.SyncClocks()
		t0 := p.Now()
		if err := h.Start(send, recv); err != nil {
			return err
		}
		e1 := p.AllreduceMaxFloat64(p.Now() - t0)
		p.SyncClocks()
		t0 = p.Now()
		if err := h.Start(send, recv); err != nil {
			return err
		}
		e2 := p.AllreduceMaxFloat64(p.Now() - t0)
		if p.Rank() == 0 {
			first, second = e1, e2
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Errorf("frozen Start took %v ns, recording Start %v ns; want faster", second, first)
	}
}

// TestPersistentInitValidation covers the error paths: bad radix
// (errors.Is-able), malformed layouts, and the P=1 degenerate world.
func TestPersistentInitValidation(t *testing.T) {
	w, err := mpi.NewWorld(2, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		sc := []int{4, 4}
		sd := []int{0, 4}
		if _, err := AlltoallvInit(p, 1, sc, sd, sc, sd); !errors.Is(err, ErrInvalidRadix) {
			t.Errorf("radix 1: err = %v, want ErrInvalidRadix", err)
		}
		if _, err := AlltoallvInit(p, 2, []int{4}, sd, sc, sd); err == nil {
			t.Error("short scounts accepted")
		}
		if _, err := AlltoallvInit(p, 2, []int{-1, 4}, sd, sc, sd); err == nil {
			t.Error("negative count accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w1, err := mpi.NewWorld(1, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w1.Run(func(p *mpi.Proc) error {
		sc := []int{5}
		sd := []int{0}
		h, err := AlltoallvInit(p, 2, sc, sd, sc, sd)
		if err != nil {
			return err
		}
		defer h.Free()
		send := buffer.New(5)
		recv := buffer.New(5)
		for j := 0; j < 5; j++ {
			send.SetByte(j, byte(j)+1)
		}
		for i := 0; i < 2; i++ {
			if err := h.Start(send, recv); err != nil {
				return err
			}
		}
		for j := 0; j < 5; j++ {
			if recv.Byte(j) != byte(j)+1 {
				t.Errorf("P=1 byte %d = %d", j, recv.Byte(j))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentAuto exercises AlltoallvInitAuto's two radix sources:
// the analytic model pick, and a calibration-table winner naming a
// parameterized radix.
func TestPersistentAuto(t *testing.T) {
	const P, maxN = 8, 10
	run := func(table *Table, wantRadix int) {
		t.Helper()
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, 11)
			h, err := AlltoallvInitAuto(p, table, sc, sd, rc, rd)
			if err != nil {
				return err
			}
			defer h.Free()
			if wantRadix > 0 && h.Radix() != wantRadix {
				t.Errorf("auto radix = %d, want %d", h.Radix(), wantRadix)
			}
			if h.Radix() < 2 || h.Radix() > maxAutoRadix {
				t.Errorf("auto radix %d outside [2, %d]", h.Radix(), maxAutoRadix)
			}
			got := buffer.New(rTotal)
			want := buffer.New(rTotal)
			if err := h.Start(send, got); err != nil {
				return err
			}
			if err := NaiveAlltoallv(p, send, sc, sd, want, rc, rd); err != nil {
				return err
			}
			if !buffer.Equal(got, want) {
				t.Errorf("rank %d: auto persistent differs from reference", p.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(nil, 0) // analytic pick
	// A calibrated cell naming a parameterized radix pins the choice.
	run(&Table{Cells: []Cell{{P: P, N: maxN, Algorithm: "two-phase-r5"}}}, 5)
}
