package mpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/fault"
	"bruckv/internal/machine"
)

// The cross-backend differential harness: the same rank function on
// identically-configured worlds under both executors must produce
// bit-identical virtual timings, identical trace streams, and
// byte-identical payloads. The coll-level grid
// (internal/coll/executor_diff_test.go) covers the registered
// algorithms; this file pins the runtime primitives.

// bothWorlds builds two identically-configured worlds, one per
// backend. The extra options are applied to both.
func bothWorlds(t *testing.T, size int, opts ...Option) (wg, we *World) {
	t.Helper()
	mk := func(e Executor) *World {
		w, err := NewWorld(size, append(append([]Option{}, opts...), WithExecutor(e))...)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return mk(ExecutorGoroutines), mk(ExecutorEvents)
}

// sameRunResults asserts the observable outcome of the two worlds'
// last Runs is identical: max virtual time, totals, per-phase maxima,
// and (when tracing) every rank's full event stream.
func sameRunResults(t *testing.T, wg, we *World) {
	t.Helper()
	if g, e := wg.MaxTime(), we.MaxTime(); g != e {
		t.Errorf("MaxTime: goroutines %v != events %v", g, e)
	}
	if g, e := wg.TotalBytes(), we.TotalBytes(); g != e {
		t.Errorf("TotalBytes: goroutines %d != events %d", g, e)
	}
	if g, e := wg.TotalMessages(), we.TotalMessages(); g != e {
		t.Errorf("TotalMessages: goroutines %d != events %d", g, e)
	}
	if g, e := wg.MaxPhase(), we.MaxPhase(); !reflect.DeepEqual(g, e) {
		t.Errorf("MaxPhase: goroutines %v != events %v", g, e)
	}
	tg, te := wg.Trace(), we.Trace()
	if (tg == nil) != (te == nil) {
		t.Fatalf("tracing mismatch: goroutines %v, events %v", tg != nil, te != nil)
	}
	if tg == nil {
		return
	}
	if tg.Ranks() != te.Ranks() {
		t.Fatalf("trace ranks: %d != %d", tg.Ranks(), te.Ranks())
	}
	for r := 0; r < tg.Ranks(); r++ {
		eg, ee := tg.Events(r), te.Events(r)
		if len(eg) != len(ee) {
			t.Errorf("rank %d: %d trace events under goroutines, %d under events", r, len(eg), len(ee))
			continue
		}
		for i := range eg {
			if eg[i] != ee[i] {
				t.Errorf("rank %d event %d differs:\n  goroutines: %+v\n  events:     %+v", r, i, eg[i], ee[i])
				break
			}
		}
	}
	if g, e := wg.RunStats().Pool.Outstanding(), we.RunStats().Pool.Outstanding(); g != 0 || e != 0 {
		t.Errorf("pool outstanding: goroutines %d, events %d (want 0, 0)", g, e)
	}
}

func TestExecutorStringParseRoundTrip(t *testing.T) {
	for _, e := range []Executor{ExecutorGoroutines, ExecutorEvents} {
		got, err := ParseExecutor(e.String())
		if err != nil || got != e {
			t.Errorf("round trip %v: got %v, err %v", e, got, err)
		}
	}
	if _, err := ParseExecutor("fibers"); err == nil {
		t.Error("expected error for unknown executor name")
	}
	if s := Executor(42).String(); s != "Executor(42)" {
		t.Errorf("unknown executor renders %q", s)
	}
}

func TestEventExecutorPingPong(t *testing.T) {
	w, err := NewWorld(2, WithModel(machine.Zero()), WithExecutor(ExecutorEvents))
	if err != nil {
		t.Fatal(err)
	}
	if w.Executor() != ExecutorEvents {
		t.Fatalf("Executor() = %v", w.Executor())
	}
	err = w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			b := buffer.New(4)
			b.PutUint32(0, 0xCAFE)
			p.Send(1, 7, b)
			r := buffer.New(4)
			p.Recv(1, 8, r)
			if r.Uint32(0) != 0xCAFE+1 {
				return fmt.Errorf("rank 0 got %#x", r.Uint32(0))
			}
		} else {
			r := buffer.New(4)
			p.Recv(0, 7, r)
			b := buffer.New(4)
			b.PutUint32(0, r.Uint32(0)+1)
			p.Send(0, 8, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mixedWorkload exercises most of the runtime in one rank function:
// blocking exchange, nonblocking Waitall, a sub-communicator
// collective, phases, self-sends, memcpy, and base collectives.
func mixedWorkload(p *Proc) error {
	P := p.Size()
	done := p.Phase("exchange")
	sb, rb := buffer.New(32), buffer.New(32)
	for d := 0; d < P; d++ {
		sb.FillPattern(uint64(p.Rank()*1000 + d))
		p.Send(d, 11, sb)
	}
	reqs := make([]*Request, 0, P)
	bufs := make([]buffer.Buf, P)
	for s := 0; s < P; s++ {
		bufs[s] = buffer.New(32)
		reqs = append(reqs, p.Irecv(s, 11, bufs[s]))
	}
	if err := p.Waitall(reqs); err != nil {
		return err
	}
	for s := 0; s < P; s++ {
		want := buffer.New(32)
		want.FillPattern(uint64(s*1000 + p.Rank()))
		if !buffer.Equal(bufs[s], want) {
			return fmt.Errorf("rank %d: wrong bytes from %d", p.Rank(), s)
		}
	}
	done()
	p.Barrier()
	sub := p.Split(p.Rank()%2, p.Rank())
	m := sub.AllreduceMaxInt(p.Rank())
	if exp := P - 1 - (1 - p.Rank()%2); m != exp && P > 1 {
		return fmt.Errorf("rank %d: sub allreduce %d want %d", p.Rank(), m, exp)
	}
	p.Memcpy(rb, sb)
	p.SendRecv((p.Rank()+1)%P, 12, sb, (p.Rank()+P-1)%P, 12, rb)
	p.Charge(100)
	if s := p.AllreduceSumInt64(1); s != int64(P) {
		return fmt.Errorf("rank %d: sum %d", p.Rank(), s)
	}
	return nil
}

func TestExecutorDiffMixedWorkload(t *testing.T) {
	wg, we := bothWorlds(t, 8, WithModel(machine.Theta()), WithTrace(), WithRanksPerNode(4), WithTransportChecks())
	for run := 0; run < 3; run++ {
		if err := wg.Run(mixedWorkload); err != nil {
			t.Fatalf("goroutines run %d: %v", run, err)
		}
		if err := we.Run(mixedWorkload); err != nil {
			t.Fatalf("events run %d: %v", run, err)
		}
		sameRunResults(t, wg, we)
	}
}

func TestExecutorDiffWithJitterAndStragglers(t *testing.T) {
	pl := fault.Plan{Seed: 42, NumStragglers: 2, Slowdown: 3, Jitter: 0.4}
	wg, we := bothWorlds(t, 8, WithModel(machine.Theta()), WithTrace(), WithFaults(pl))
	if err := wg.Run(mixedWorkload); err != nil {
		t.Fatal(err)
	}
	if err := we.Run(mixedWorkload); err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, wg, we)
}

func TestExecutorDiffReliableLoss(t *testing.T) {
	pl := fault.Plan{Seed: 7, Loss: 0.2, Dup: 0.15, Corrupt: 0.1}
	wg, we := bothWorlds(t, 8, WithModel(machine.Theta()), WithTrace(), WithFaults(pl), WithDeadline(time.Minute))
	if err := wg.Run(allExchange); err != nil {
		t.Fatal(err)
	}
	if err := we.Run(allExchange); err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, wg, we)
}

// TestExecutorDiffDeadlockReport: a receive cycle must produce the
// exact same DeadlockError — reason, blocked set, pending triples, and
// virtual block times — under both backends. The backends detect it
// differently (machine stalled vs. every live rank asleep), but the
// diagnostic must not differ.
func TestExecutorDiffDeadlockReport(t *testing.T) {
	var des [2]*DeadlockError
	for i, e := range []Executor{ExecutorGoroutines, ExecutorEvents} {
		w, err := NewWorld(6, WithModel(machine.Zero()), WithExecutor(e))
		if err != nil {
			t.Fatal(err)
		}
		runErr := w.Run(recvCycle)
		if runErr == nil {
			t.Fatalf("%v: deadlock not detected", e)
		}
		if !errors.As(runErr, &des[i]) {
			t.Fatalf("%v: error is not a DeadlockError: %v", e, runErr)
		}
	}
	if !reflect.DeepEqual(des[0], des[1]) {
		t.Errorf("deadlock reports differ:\n  goroutines: %v\n  events:     %v", des[0], des[1])
	}
	if des[1].Error() != des[0].Error() {
		t.Errorf("rendered reports differ:\n%s\n----\n%s", des[0].Error(), des[1].Error())
	}
}

// recvCycle has every rank receive from its successor, which never
// sends: a deadlock with all ranks blocked in Recv.
func recvCycle(p *Proc) error {
	b := buffer.New(8)
	p.Recv((p.Rank()+1)%p.Size(), 99, b)
	return nil
}

// TestDeadlockReportListsEveryRank repeats the receive cycle on one
// goroutine world with two processors, so the rank whose sleep
// completes the deadlock declares it while another that has just
// counted itself asleep may still be on its way to waiting: the report
// must list all six ranks on every run, so the snapshot has to be taken
// before any rank can see the run declared dead and unwind. With the
// snapshot taken after, this dropped a rank within about 3000 runs in
// most trials; with one processor it never did.
func TestDeadlockReportListsEveryRank(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const P = 6
	w, err := NewWorld(P, WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for run := 0; run < 5000; run++ {
		var de *DeadlockError
		if err := w.Run(recvCycle); !errors.As(err, &de) {
			t.Fatalf("run %d: want a DeadlockError, got %v", run, err)
		}
		if got := de.BlockedRanks(); len(got) != P {
			t.Fatalf("run %d: report lists ranks %v, want all %d", run, got, P)
		}
	}
}

// TestExecutorDiffCrashShrink: a crashing plan must yield the same
// typed error and failed set under both backends, and the post-Shrink
// re-run must be bit-identical.
func TestExecutorDiffCrashShrink(t *testing.T) {
	pl := fault.Plan{Seed: 3, Loss: 0.05, Crashes: []fault.Crash{{Rank: 2, AtNs: 4000}}}
	wg, we := bothWorlds(t, 8, WithModel(machine.Theta()), WithFaults(pl), WithDeadline(time.Minute))
	var failed [2][]int
	for i, w := range []*World{wg, we} {
		err := w.Run(allExchange)
		var rfe *RankFailedError
		if !errors.As(err, &rfe) {
			t.Fatalf("world %d: want RankFailedError, got %v", i, err)
		}
		failed[i] = rfe.FailedRanks()
	}
	if !reflect.DeepEqual(failed[0], failed[1]) {
		t.Fatalf("failed sets differ: goroutines %v events %v", failed[0], failed[1])
	}
	// Recovery: survivors re-run the exchange on the shrunken
	// communicator; results must match across backends.
	shrunkRun := func(p *Proc) error {
		sub := p.Shrink()
		if sub == nil {
			return fmt.Errorf("rank %d: Shrink returned nil", p.Rank())
		}
		P := sub.Size()
		sb, rb := buffer.New(8), buffer.New(8)
		for d := 0; d < P; d++ {
			sb.PutUint64(0, uint64(sub.Rank())<<32|uint64(d))
			sub.Send(d, 5, sb)
		}
		for s := 0; s < P; s++ {
			sub.Recv(s, 5, rb)
			if rb.Uint64(0) != uint64(s)<<32|uint64(sub.Rank()) {
				return fmt.Errorf("rank %d: wrong bytes from %d after shrink", sub.Rank(), s)
			}
		}
		return nil
	}
	if err := wg.Run(shrunkRun); err != nil {
		t.Fatalf("goroutines shrink re-run: %v", err)
	}
	if err := we.Run(shrunkRun); err != nil {
		t.Fatalf("events shrink re-run: %v", err)
	}
	sameRunResults(t, wg, we)
}

// TestEventExecutorCreditParking floods one rank with far more
// messages than evInboxCap, so senders must park and be resumed by the
// drain side; the outcome must still match the goroutine backend,
// where sends never block.
func TestEventExecutorCreditParking(t *testing.T) {
	const perSender = evInboxCap // 3 senders: 3*cap messages to rank 0
	flood := func(p *Proc) error {
		b := buffer.New(8)
		if p.Rank() != 0 {
			for i := 0; i < perSender; i++ {
				b.PutUint64(0, uint64(p.Rank())<<32|uint64(i))
				p.Send(0, 21, b)
			}
			return nil
		}
		for s := 1; s < p.Size(); s++ {
			for i := 0; i < perSender; i++ {
				p.Recv(s, 21, b)
				if b.Uint64(0) != uint64(s)<<32|uint64(i) {
					return fmt.Errorf("wrong bytes from %d msg %d", s, i)
				}
			}
		}
		return nil
	}
	wg, we := bothWorlds(t, 4, WithModel(machine.Theta()), WithDeadline(time.Minute))
	if err := wg.Run(flood); err != nil {
		t.Fatal(err)
	}
	if err := we.Run(flood); err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, wg, we)
}

// TestEventExecutorStallEscalation wedges the machine behind credit:
// rank 0 blocks on a tag its peer only sends after flooding more than
// evInboxCap messages of another tag, so the scheduler must
// force-resume the parked sender to keep the run live.
func TestEventExecutorStallEscalation(t *testing.T) {
	const floodN = evInboxCap + 300
	fn := func(p *Proc) error {
		b := buffer.New(8)
		if p.Rank() == 1 {
			for i := 0; i < floodN; i++ {
				b.PutUint64(0, uint64(i))
				p.Send(0, 5, b)
			}
			p.Send(0, 6, b) // the message rank 0 is actually waiting for
			return nil
		}
		p.Recv(1, 6, b)
		for i := 0; i < floodN; i++ {
			p.Recv(1, 5, b)
			if b.Uint64(0) != uint64(i) {
				return fmt.Errorf("flood message %d reordered", i)
			}
		}
		return nil
	}
	wg, we := bothWorlds(t, 2, WithModel(machine.Theta()), WithDeadline(time.Minute))
	if err := wg.Run(fn); err != nil {
		t.Fatal(err)
	}
	if err := we.Run(fn); err != nil {
		t.Fatal(err)
	}
	sameRunResults(t, wg, we)
}

// TestEventExecutorContextCancel: canceling the context mid-run must
// abort an event-backend livelock (messages forever in flight, so the
// exact stall detector never fires) with the usual blocked-state
// report, matching context.Canceled. A true deadlock would not need
// the context at all: the event backend detects it exactly and
// instantly (see TestExecutorDiffDeadlockReport).
func TestEventExecutorContextCancel(t *testing.T) {
	w, err := NewWorld(2, WithModel(machine.Zero()), WithExecutor(ExecutorEvents))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	runErr := w.RunContext(ctx, func(p *Proc) error {
		b := buffer.New(8)
		for {
			p.Send(1-p.Rank(), 1, b)
			p.Recv(1-p.Rank(), 1, b)
		}
	})
	if runErr == nil {
		t.Fatal("expected abort")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("error does not match context.Canceled: %v", runErr)
	}
	var de *DeadlockError
	if !errors.As(runErr, &de) {
		t.Fatalf("want DeadlockError diagnostic, got %v", runErr)
	}
}

// TestEventExecutorRankPanic: a real panic in a rank function must be
// reported as an error (with the rank id), like the goroutine backend.
func TestEventExecutorRankPanic(t *testing.T) {
	w, err := NewWorld(3, WithModel(machine.Zero()), WithExecutor(ExecutorEvents), WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	runErr := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if runErr == nil || !strings.Contains(runErr.Error(), "rank 1 panicked: boom") {
		t.Fatalf("want rank-1 panic error, got %v", runErr)
	}
}

// TestCleanRunSkipsDeadlockProbe pins that on the goroutine backend
// healthy Runs, blocking ones included, never reach the deadlock
// verdict and leave the idle accounting at "every rank finished, none
// asleep", while a real deadlock is still declared by the detector
// itself rather than by a watchdog.
func TestCleanRunSkipsDeadlockProbe(t *testing.T) {
	w := zeroWorld(t, 8)
	for i := 0; i < 50; i++ {
		if err := w.Run(func(p *Proc) error { p.Charge(10); p.Barrier(); return nil }); err != nil {
			t.Fatal(err)
		}
		if v := w.idle.Load(); v != 8*idleFinished {
			t.Fatalf("run %d left idle = %#x, want %#x (8 finished, 0 asleep)", i, v, 8*idleFinished)
		}
	}
	runErr := w.Run(func(p *Proc) error {
		b := buffer.New(4)
		p.Recv((p.Rank()+1)%p.Size(), 1, b)
		return nil
	})
	var de *DeadlockError
	if !errors.As(runErr, &de) {
		t.Fatalf("deadlock not detected: %v", runErr)
	}
	if !strings.Contains(de.Reason, "deadlock detected") {
		t.Errorf("reason %q is not the detector's verdict", de.Reason)
	}
}

// TestEventExecutorMegaScaleMemory is the O(P) memory audit: a
// quarter-million-rank phantom world must run a log-P collective on
// the event backend with a bounded per-rank footprint. Under -race
// (or -short) the world shrinks — instrumentation makes the full size
// needlessly slow — but the per-rank ceiling stays the same, which is
// what makes the bound O(P).
func TestEventExecutorMegaScaleMemory(t *testing.T) {
	P := 262144
	if raceEnabled || testing.Short() {
		P = 32768
	}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w, err := NewWorld(P, WithModel(machine.Theta()), WithPhantom(), WithExecutor(ExecutorEvents))
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]int64, P)
	if err := w.Run(func(p *Proc) error {
		p.Barrier()
		sum[p.Rank()] = p.AllreduceSumInt64(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < P; r++ {
		if sum[r] != int64(P) {
			t.Fatalf("rank %d: allreduce sum %d want %d", r, sum[r], P)
		}
	}
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	perRank := float64(int64(ms1.HeapInuse+ms1.StackInuse)-int64(ms0.HeapInuse+ms0.StackInuse)) / float64(P)
	t.Logf("P=%d: %.0f bytes/rank live after run (heap+stack), MaxTime=%.0fns, msgs=%d",
		P, perRank, w.MaxTime(), w.TotalMessages())
	// Ceiling: resident per-rank state (mailbox, arena headers, request
	// lists, carrier stack) is a couple of KB; 16 KB leaves slack for
	// allocator rounding while still catching anything O(P) per rank
	// (even one int per peer per rank would blow it 100x over).
	const ceiling = 16 << 10
	if perRank > ceiling {
		t.Errorf("per-rank footprint %.0f bytes exceeds ceiling %d", perRank, ceiling)
	}
	if want := int64(P) * int64(bitsLen(P)); w.TotalMessages() < want {
		t.Errorf("suspiciously few messages: %d < %d", w.TotalMessages(), want)
	}
	w.Close()
}

// bitsLen returns ceil(log2(n)) for n > 1 — the dissemination-barrier
// round count.
func bitsLen(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}

// BenchmarkExecutor compares backend host performance at matched P on
// a message-heavy exchange; bench.HostPerf records the same comparison
// into BENCH_hostperf.json.
func BenchmarkExecutor(b *testing.B) {
	for _, e := range []Executor{ExecutorGoroutines, ExecutorEvents} {
		b.Run(e.String(), func(b *testing.B) {
			w, err := NewWorld(64, WithModel(machine.Theta()), WithPhantom(), WithExecutor(e))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Run(func(p *Proc) error {
					p.Barrier()
					p.AllreduceMaxInt(p.Rank())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
