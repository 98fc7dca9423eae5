package coll

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/fault"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// Payload ownership: the packed step loops borrow transport payloads
// (PayloadBuf, RecvPayload) and hand them back (SendPayload,
// FreePayload). Every payload must be back in the pool when a run ends,
// however it ends: an argument error mid-exchange, a planned crash, or
// a context cancel. Spread-out rides along for Waitall, which holds
// matched messages across its completion pass. The worlds run with
// transport checks on, so a payload returned twice panics and one read
// after its return reads poison.

const ownP, ownN = 8, 12

// ownershipAlgs are the loops the tests drive: one call of
// the named collective on real buffers. bad makes the calling rank's
// arguments disagree with its peers' (an rcounts entry for the
// Alltoallv loops, the block size for zero-rotation).
var ownershipAlgs = []struct {
	name string
	// prepare builds the rank's call; the returned function is called
	// once per collective and free releases anything it pinned.
	prepare func(p *mpi.Proc, bad bool) (call func() error, free func(), err error)
}{
	{"two-phase", func(p *mpi.Proc, bad bool) (func() error, func(), error) {
		send, sc, sd, rc, rd, rTotal := ownLayout(p, bad)
		recv := buffer.New(rTotal)
		return func() error { return TwoPhaseBruck(p, send, sc, sd, recv, rc, rd) }, func() {}, nil
	}},
	{"persistent", func(p *mpi.Proc, bad bool) (func() error, func(), error) {
		send, sc, sd, rc, rd, rTotal := ownLayout(p, bad)
		recv := buffer.New(rTotal)
		h, err := AlltoallvInit(p, 2, sc, sd, rc, rd)
		if err != nil {
			return nil, nil, err
		}
		return func() error { return h.Start(send, recv) }, h.Free, nil
	}},
	{"spreadout", func(p *mpi.Proc, bad bool) (func() error, func(), error) {
		send, sc, sd, rc, rd, rTotal := ownLayout(p, bad)
		recv := buffer.New(rTotal)
		return func() error { return SpreadOut(p, send, sc, sd, recv, rc, rd) }, func() {}, nil
	}},
	{"zero-rotation", func(p *mpi.Proc, bad bool) (func() error, func(), error) {
		n := ownN
		if bad && p.Rank() == 0 {
			n--
		}
		send, recv := buffer.New(ownP*ownN), buffer.New(ownP*ownN)
		fillUniform(send, p.Rank(), ownP, ownN)
		return func() error { return ZeroRotationBruck(p, send, n, recv) }, func() {}, nil
	}},
}

// ownLayout is a real-payload Alltoallv layout with every block
// nonempty. With bad, rank 0 expects one byte less from rank 1 than
// rank 1 sends: two-phase reports it when that block lands on its first
// step, spread-out's receive of it panics as a truncation.
func ownLayout(p *mpi.Proc, bad bool) (send buffer.Buf, sc, sd, rc, rd []int, rTotal int) {
	size := func(src, dst int) int { return 1 + (src*5+dst*3)%ownN }
	sc, rc = make([]int, ownP), make([]int, ownP)
	for d := range sc {
		sc[d], rc[d] = size(p.Rank(), d), size(d, p.Rank())
	}
	if bad && p.Rank() == 0 {
		rc[1]--
	}
	sd, sTotal := ContigDispls(sc)
	rd, rTotal = ContigDispls(rc)
	send = buffer.New(sTotal)
	for d := range sc {
		for j := 0; j < sc[d]; j++ {
			send.SetByte(sd[d]+j, patByte(p.Rank(), d, j))
		}
	}
	return send, sc, sd, rc, rd, rTotal
}

func ownWorld(t *testing.T, e mpi.Executor, opts ...mpi.Option) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(ownP, append([]mpi.Option{mpi.WithModel(machine.Theta()), mpi.WithExecutor(e),
		mpi.WithTransportChecks(), mpi.WithDeadline(time.Minute)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// runOwned runs calls collectives of the named loop on every rank.
func runOwned(w *mpi.World, ctx context.Context, prepare func(*mpi.Proc, bool) (func() error, func(), error),
	bad bool, calls func(p *mpi.Proc, i int) bool) error {
	return w.RunContext(ctx, func(p *mpi.Proc) error {
		call, free, err := prepare(p, bad)
		if err != nil {
			return err
		}
		defer free()
		for i := 0; calls(p, i); i++ {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
}

func checkBalanced(t *testing.T, w *mpi.World) {
	t.Helper()
	if out := w.RunStats().Pool.Outstanding(); out != 0 {
		t.Errorf("%d payloads outstanding after the run", out)
	}
}

func TestPayloadOwnershipOnMismatch(t *testing.T) {
	for _, e := range []mpi.Executor{mpi.ExecutorGoroutines, mpi.ExecutorEvents} {
		for _, a := range ownershipAlgs {
			t.Run(fmt.Sprintf("%v/%s", e, a.name), func(t *testing.T) {
				w := ownWorld(t, e)
				once := func(_ *mpi.Proc, i int) bool { return i < 1 }
				if err := runOwned(w, context.Background(), a.prepare, true, once); err == nil {
					t.Fatal("mismatched arguments did not fail the run")
				}
				checkBalanced(t, w)
				// The world stays usable, and a clean run balances too.
				if err := runOwned(w, context.Background(), a.prepare, false, once); err != nil {
					t.Fatalf("clean run after the failed one: %v", err)
				}
				checkBalanced(t, w)
			})
		}
	}
}

func TestPayloadOwnershipOnCrash(t *testing.T) {
	twice := func(_ *mpi.Proc, i int) bool { return i < 2 }
	for _, e := range []mpi.Executor{mpi.ExecutorGoroutines, mpi.ExecutorEvents} {
		for _, a := range ownershipAlgs {
			t.Run(fmt.Sprintf("%v/%s", e, a.name), func(t *testing.T) {
				// Crash rank 2 at fractions of the clean run's virtual
				// time: mid-exchange, with payloads in flight.
				clean := ownWorld(t, e)
				if err := runOwned(clean, context.Background(), a.prepare, false, twice); err != nil {
					t.Fatal(err)
				}
				for _, frac := range []float64{0.2, 0.5, 0.8} {
					at := clean.MaxTime() * frac
					w := ownWorld(t, e, mpi.WithFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: at}}}))
					err := runOwned(w, context.Background(), a.prepare, false, twice)
					var rfe *mpi.RankFailedError
					if !errors.As(err, &rfe) {
						t.Fatalf("crash at %.0f ns: no RankFailedError in %v", at, err)
					}
					if out := w.RunStats().Pool.Outstanding(); out != 0 {
						t.Errorf("crash at %.0f ns: %d payloads outstanding after the run", at, out)
					}
				}
			})
		}
	}
}

func TestPayloadOwnershipOnCancel(t *testing.T) {
	const maxCalls = 10000
	for _, e := range []mpi.Executor{mpi.ExecutorGoroutines, mpi.ExecutorEvents} {
		for _, a := range ownershipAlgs {
			t.Run(fmt.Sprintf("%v/%s", e, a.name), func(t *testing.T) {
				w := ownWorld(t, e)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Every rank keeps calling; rank 0 cancels before its
				// third call, so the abort lands mid-exchange.
				calls := func(p *mpi.Proc, i int) bool {
					if p.Rank() == 0 && i == 2 {
						cancel()
					}
					return i < maxCalls
				}
				err := runOwned(w, ctx, a.prepare, false, calls)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("run did not end in the cancel: %v", err)
				}
				checkBalanced(t, w)
			})
		}
	}
}
