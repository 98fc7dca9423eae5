package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Discrete-event executor backend.
//
// The default (goroutine) backend gives every rank a resident worker
// goroutine and lets the Go scheduler interleave them, relying on the
// determinism of the virtual-time pricing to make timings independent
// of that interleaving. That is simple and fast at small P, but at
// mega-scale it means hundreds of thousands of simultaneously runnable
// goroutines and sync.Cond wake-ups per message.
//
// The event backend (WithExecutor(ExecutorEvents)) replaces the free
// interleaving with a discrete-event scheduler: ranks ready to run sit
// in a min-heap keyed by their virtual clock, and at most evWorkers of
// them execute at a time. A rank runs on a carrier goroutine — spawned
// lazily per Run, exiting when the rank function returns — that
// relinquishes its slot whenever the rank blocks in a receive (or
// parks on flow-control credit) and is resumed by the scheduler when a
// message arrives for it. Scheduling is by direct handoff: there is no
// scheduler goroutine — the rank that blocks, finishes, or delivers a
// message dispatches the next ready rank itself.
//
// Because the virtual-time pricing is a pure function of the message
// flow (see the package comment), the event backend produces
// bit-identical virtual timings, byte-identical payloads, and
// identical trace streams to the goroutine backend; the differential
// harness in executor_test.go and internal/coll/executor_diff_test.go
// pins that equivalence. What changes is the host-side execution:
// bounded runnable set, no condition-variable broadcasts, bounded
// in-flight messages per inbox (evInboxCap, with senders parking on
// credit), and deadlock detection read off the scheduler's own state —
// the run is wedged precisely when no rank is running, none is ready,
// and unfinished ranks remain.

// Executor selects a World's execution backend.
type Executor int

const (
	// ExecutorGoroutines is the default backend: one resident goroutine
	// per rank, interleaved by the Go scheduler.
	ExecutorGoroutines Executor = iota
	// ExecutorEvents is the discrete-event backend: ranks advance in
	// virtual-clock order on a bounded set of carrier goroutines. Best
	// for very large worlds (10^5–10^6 phantom ranks).
	ExecutorEvents
)

// String returns the executor's flag-friendly name.
func (e Executor) String() string {
	switch e {
	case ExecutorGoroutines:
		return "goroutines"
	case ExecutorEvents:
		return "events"
	}
	return fmt.Sprintf("Executor(%d)", int(e))
}

// ParseExecutor parses an executor name as produced by String
// ("goroutines" or "events", case-insensitive).
func ParseExecutor(s string) (Executor, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "goroutines", "goroutine":
		return ExecutorGoroutines, nil
	case "events", "event":
		return ExecutorEvents, nil
	}
	return ExecutorGoroutines, fmt.Errorf("mpi: unknown executor %q (want goroutines or events)", s)
}

// WithExecutor selects the world's execution backend (default
// ExecutorGoroutines). Both backends implement the identical contract —
// virtual timings, trace events, fault pricing, error reports — so the
// choice is purely a host-performance one.
func WithExecutor(e Executor) Option { return func(w *World) { w.executor = e } }

// Executor returns the backend the world was created with.
func (w *World) Executor() Executor { return w.executor }

// evWorkers bounds how many rank carriers execute concurrently. More
// than GOMAXPROCS buys nothing (carriers are CPU-bound between blocks);
// a small cap keeps the runnable set cache-friendly at mega-scale.
func evWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// evInboxCap bounds the messages queued in one inbox before senders
// park on flow-control credit. It caps in-flight message memory at
// O(P·cap) instead of O(messages); parked senders are resumed as the
// inbox drains, and a stalled machine force-resumes them one at a time
// (see escalate) so any program that is deadlock-free under unbounded
// queues stays deadlock-free under bounded ones.
const evInboxCap = 1024

// Carrier execution states, guarded by evSched.mu.
const (
	evIdle    int32 = iota // before launch (or failed rank): not participating
	evReady                // in the ready heap, waiting for a slot
	evRunning              // executing on its carrier
	evBlocked              // in a blocking receive, waiting for a message
	evParked               // in a send, waiting for inbox credit
	evDone                 // rank function returned (or unwound)
)

// evItem is one ready-heap entry: a rank keyed by its virtual clock at
// the moment it became ready. The clock key is a scheduling heuristic
// (advance the laggard first, which keeps inbox occupancy low); rank
// breaks ties so the order is total and deterministic.
type evItem struct {
	t float64
	r int32
}

// evSched is the per-world discrete-event scheduler state.
type evSched struct {
	w *World

	mu         sync.Mutex
	heap       []evItem // ready ranks, min (t, r) at index 0
	running    int      // carriers currently executing
	unfinished int      // ranks dispatched this run whose fn has not returned
	workers    int      // max concurrent carriers

	// Per-run dispatch context, written by launch before any token is
	// sent (the resume-channel handoff publishes them to carriers).
	fn   func(p *Proc) error
	errs []error
	wg   *sync.WaitGroup
	gen  int64 // bumps per launch; stale escalations check it
}

func newEvSched(w *World) *evSched {
	return &evSched{w: w, workers: evWorkers()}
}

// heap operations (hand-rolled so pushes and pops stay allocation- and
// interface-free on the hot path).

func (s *evSched) pushLocked(t float64, r int32) {
	s.heap = append(s.heap, evItem{t: t, r: r})
	i := len(s.heap) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !evLess(s.heap[i], s.heap[par]) {
			break
		}
		s.heap[i], s.heap[par] = s.heap[par], s.heap[i]
		i = par
	}
}

func (s *evSched) popLocked() int32 {
	top := s.heap[0].r
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && evLess(s.heap[l], s.heap[small]) {
			small = l
		}
		if r < last && evLess(s.heap[r], s.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}

func evLess(a, b evItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.r < b.r
}

// launch dispatches one Run on the event backend: every live rank
// becomes ready at virtual time zero and the first evWorkers of them
// start. Ranks recorded as failed by earlier Runs are skipped exactly
// like the goroutine dispatcher skips them.
func (s *evSched) launch(fn func(p *Proc) error, errs []error, wg *sync.WaitGroup) {
	s.mu.Lock()
	s.gen++
	s.fn, s.errs, s.wg = fn, errs, wg
	s.heap = s.heap[:0]
	s.running = 0
	s.unfinished = 0
	for _, p := range s.w.procs {
		st := p.procState
		// A stray resume token cannot survive a completed run (every
		// transition to running consumes one), but drain defensively so
		// a bug there cannot corrupt the next run's scheduling.
		select {
		case <-st.evResume:
		default:
		}
		if s.w.failed != nil && s.w.failed[st.grank] {
			st.evState = evDone
			wg.Done()
			continue
		}
		st.evState = evReady
		st.evSpawned = false
		st.evForce.Store(false)
		s.unfinished++
		s.pushLocked(0, int32(st.grank))
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// dispatchLocked resumes ready ranks while carrier slots are free.
// Must run with s.mu held.
func (s *evSched) dispatchLocked() {
	for s.running < s.workers && len(s.heap) > 0 {
		r := s.popLocked()
		st := s.w.procs[r].procState
		if st.evState != evReady {
			continue // stale heap entry (rank was re-pushed and already ran)
		}
		st.evState = evRunning
		s.running++
		if !st.evSpawned {
			st.evSpawned = true
			go s.carrier(s.w.procs[r])
		}
		st.evResume <- struct{}{} // buffered(1): at most one token in flight
	}
}

// carrier is one rank's execution context for one Run. It parks on the
// resume channel until dispatched, runs the rank function, and hands
// its slot to the next ready rank on every block and at exit. Panics
// unwind through the same classification as the goroutine backend
// (runAbort dropped, rankCrash recorded, real panics reported).
func (s *evSched) carrier(p *Proc) {
	<-p.evResume
	defer func() {
		s.w.classifyRankPanic(recover(), p, s.errs)
		s.finish(p.procState)
		s.wg.Done()
	}()
	s.errs[p.rank] = s.fn(p)
}

// finish retires a rank whose function returned or unwound.
func (s *evSched) finish(st *procState) {
	s.mu.Lock()
	st.evState = evDone
	s.unfinished--
	s.running--
	s.dispatchLocked()
	stalled := s.stalledLocked()
	gen := s.gen
	s.mu.Unlock()
	if stalled {
		s.escalate(gen)
	}
}

// release gives up the caller's carrier slot without finishing the
// rank (it blocked or parked); the freed slot dispatches the next
// ready rank. Called with no locks held.
func (s *evSched) release(st *procState) {
	s.mu.Lock()
	s.running--
	s.dispatchLocked()
	stalled := s.stalledLocked()
	gen := s.gen
	s.mu.Unlock()
	if stalled {
		s.escalate(gen)
	}
}

// stalledLocked reports whether the machine has wedged: nothing
// running, nothing ready, unfinished ranks remaining. The scheduler
// knows every rank's state, so this is exact.
func (s *evSched) stalledLocked() bool {
	return s.running == 0 && len(s.heap) == 0 && s.unfinished > 0
}

// blockWait parks the calling rank until a message arrives for it (or
// the run aborts): the event-backend replacement for box.cond.Wait.
// Called with the rank's own box.mu held; returns with it re-acquired.
// The caller re-checks its queues and the dead flag on return — wakes
// may be spurious.
func (s *evSched) blockWait(st *procState) {
	s.mu.Lock()
	st.evState = evBlocked
	s.mu.Unlock()
	st.box.mu.Unlock()
	s.release(st)
	<-st.evResume
	st.box.mu.Lock()
}

// wake makes a blocked destination ready after a message was enqueued
// for it. Called with the destination's box.mu held (the lock order is
// box.mu → sched.mu, everywhere).
func (s *evSched) wake(st *procState) {
	s.mu.Lock()
	if st.evState == evBlocked {
		st.evState = evReady
		s.pushLocked(st.now, int32(st.grank))
		s.dispatchLocked()
	}
	s.mu.Unlock()
}

// creditWait blocks the sending rank while the destination inbox is at
// capacity. Parked senders are resumed by unpark as the inbox drains,
// or force-resumed by escalate when the whole machine is otherwise
// stalled (evForce bypasses the credit check for one enqueue). Callers
// skip self-sends — a rank cannot drain its own inbox while parked on
// it. Called with no locks held.
func (s *evSched) creditWait(p *Proc, gdst int) {
	dst := s.w.procs[gdst].procState
	db := &dst.box
	db.mu.Lock()
	for db.qn >= evInboxCap {
		if p.evForce.Load() {
			p.evForce.Store(false)
			break
		}
		if s.w.dead.Load() {
			db.mu.Unlock()
			panic(runAbort{p.rank})
		}
		s.mu.Lock()
		if dst.evState == evDone {
			// The destination already returned and will never drain;
			// deliver anyway (the end-of-run sweep reclaims payloads),
			// matching the goroutine backend where sends never block.
			s.mu.Unlock()
			break
		}
		p.evState = evParked
		s.mu.Unlock()
		db.parked = append(db.parked, p.procState)
		db.mu.Unlock()
		s.release(p.procState)
		<-p.evResume
		db.mu.Lock()
	}
	db.mu.Unlock()
}

// unpark resumes senders parked on an inbox that just drained, at most
// as many as the freed capacity admits. Called by the inbox's owner
// with its box.mu held.
func (s *evSched) unpark(b *inbox) {
	free := evInboxCap - b.qn
	if free <= 0 || len(b.parked) == 0 {
		return
	}
	n := len(b.parked)
	if n > free {
		n = free
	}
	s.mu.Lock()
	for i := 0; i < n; i++ {
		st := b.parked[i]
		// A parked entry can be stale: the sender may have been
		// force-resumed by escalate (or woken via an earlier duplicate
		// entry) and moved on. The state check makes stale wakes no-ops.
		if st.evState == evParked {
			st.evState = evReady
			s.pushLocked(st.now, int32(st.grank))
		}
	}
	s.dispatchLocked()
	s.mu.Unlock()
	rest := copy(b.parked, b.parked[n:])
	for i := rest; i < len(b.parked); i++ {
		b.parked[i] = nil
	}
	b.parked = b.parked[:rest]
}

// escalate handles a stalled machine: if credit-parked senders exist,
// the one with the lowest virtual clock is force-resumed (its next
// enqueue bypasses the credit check), which is the liveness valve that
// keeps bounded inboxes from wedging programs that were deadlock-free
// under unbounded ones. If no rank is parked, every unfinished rank is
// blocked in a receive: that is a real deadlock — sends in this runtime
// never block — and it is declared with the exact same diagnostic the
// goroutine backend's detector produces.
func (s *evSched) escalate(gen int64) {
	s.mu.Lock()
	if s.gen != gen || !s.stalledLocked() {
		s.mu.Unlock()
		return
	}
	best := -1
	var bestT float64
	for _, p := range s.w.procs {
		st := p.procState
		if st.evState == evParked && (best < 0 || st.now < bestT) {
			best, bestT = st.grank, st.now
		}
	}
	if best >= 0 {
		st := s.w.procs[best].procState
		st.evForce.Store(true)
		st.evState = evRunning
		s.running++
		if !st.evSpawned { // cannot happen (parked ranks ran), but stay safe
			st.evSpawned = true
			go s.carrier(s.w.procs[best])
		}
		st.evResume <- struct{}{}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.w.deadMu.Lock()
	wgen := s.w.gen
	s.w.deadMu.Unlock()
	s.w.declareDead(wgen, "deadlock detected: every live rank is blocked waiting for a message")
}

// wakeAllBlocked readies every blocked or parked rank so it can observe
// the dead flag and unwind; called after an abort is declared (the
// event-backend analogue of declareAbort's cond.Broadcast sweep).
func (s *evSched) wakeAllBlocked() {
	s.mu.Lock()
	for _, p := range s.w.procs {
		st := p.procState
		if st.evState == evBlocked || st.evState == evParked {
			st.evState = evReady
			s.pushLocked(st.now, int32(st.grank))
		}
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// classifyRankPanic applies the shared panic classification for a rank
// unwind (both backends): a runAbort is deliberate (the abort error
// carries the diagnostic), a rankCrash is recorded for the reliability
// epilogue, anything else is a real panic reported with its stack.
// v must be the value returned by recover() in the rank's deferred
// function.
func (w *World) classifyRankPanic(v any, p *Proc, errs []error) {
	if v == nil {
		return
	}
	switch rc := v.(type) {
	case runAbort:
		errs[p.rank] = nil
	case rankCrash:
		w.crashMu.Lock()
		w.crashedRun = append(w.crashedRun, rc.rank)
		w.crashMu.Unlock()
		errs[p.rank] = nil
	default:
		errs[p.rank] = fmt.Errorf("mpi: rank %d panicked: %v\n%s", p.rank, v, debug.Stack())
	}
}
