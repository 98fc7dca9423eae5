// Package mpi is an MPI-like message-passing runtime for a single
// process.
//
// A World runs P ranks, each as its own resident goroutine, exchanging
// messages through mailboxes with (communicator, source, tag) matching —
// the same point-to-point contract the paper's algorithms are written
// against in C/MPI. On top of the point-to-point layer the package
// provides the base collectives the algorithms and applications need
// (barrier, allreduce, small gathers), and communicator derivation
// (Proc.Split, Proc.Group, Proc.SplitByNode) scoping those operations to
// rank subsets, with collectives on disjoint sub-communicators running
// concurrently in one world.
//
// # Session runtime
//
// A World is a session: its rank goroutines and per-rank state (mailbox
// buckets, request free lists, scratch arenas) are created once, on the
// first Run, and persist across Run calls — each Run resets clocks and
// dispatches work to the parked workers instead of respawning P
// goroutines, so iterated workloads pay the setup once. The resident
// goroutines hold no reference to the World, so dropping the last
// reference to a World releases everything (a finalizer parks the
// workers); call Close to release them deterministically.
//
// # Virtual time
//
// Every rank carries a virtual clock, advanced according to the
// machine.Model the world was created with: message sends charge a
// per-message overhead plus per-byte injection time on the sender,
// receives charge drain time on the receiver, and message availability is
// constrained by the sender's injection completion plus wire latency.
// Local copies performed through Proc.Memcpy charge the model's memcpy
// cost. The resulting virtual times are fully deterministic — they depend
// only on the algorithm's communication structure and the model, never on
// goroutine scheduling — which is what allows this package to reproduce
// the paper's scaling studies on a laptop.
//
// Tags below -1000 are reserved for the built-in collectives.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/fault"
	"bruckv/internal/machine"
	"bruckv/internal/trace"
)

// World is the root communicator: a fixed set of ranks plus the machine
// model that prices their communication, run as a resident session.
type World struct {
	size         int
	model        machine.Model
	phantom      bool
	geff         float64 // effective inter-node per-byte time for this world size
	ranksPerNode int
	rpnSet       bool // WithRanksPerNode was passed (even with a bad value)

	// executor selects the execution backend (see WithExecutor); ev is
	// the discrete-event scheduler, non-nil only under ExecutorEvents.
	// Hot paths branch on ev == nil, so the default backend pays one
	// nil check per site.
	executor Executor
	ev       *evSched

	// Fault layer (see WithFaults). faultsOn gates every perturbation
	// site; straggler is the per-rank mask resolved from the plan.
	faults    fault.Plan
	faultsOn  bool
	straggler []bool

	// Reliability sublayer (see internal/mpi/reliable.go), active when
	// the fault plan carries message-level faults or crash events. rel
	// gates the envelope/retransmit paths; relRTO, relBackoff, and
	// relRetries are the resolved timeout parameters; crashPlan is the
	// per-global-rank death time this plan prescribes (-1 = never, nil
	// when no crash events are in range); failed is the permanent
	// record of ranks that died in completed Runs (nil until a rank
	// dies), which Shrink excludes and later Runs skip. crashMu guards
	// crashedRun, the global ranks whose goroutines reached their crash
	// time during the current Run.
	rel        bool
	relRTO     float64
	relBackoff float64
	relRetries int
	crashPlan  []float64
	failed     []bool
	crashMu    sync.Mutex
	crashedRun []int

	// deadline is the wall-clock watchdog bound for one Run (see
	// WithDeadline); 0 disables it.
	deadline time.Duration

	// intra-node cost parameters (see machine.Model.IntraParams)
	intraOS, intraOR, intraL, intraG float64

	// memcpy cost terms and the collective overhead factor, cached so
	// the per-copy and per-message paths read floats instead of copying
	// the model (see machine.Model.MemcpyCost and CollFactor)
	memcpyFixed, memcpyByte, collFactor float64

	// Session state, created lazily by the first Run and resident until
	// Close: the world-communicator group, the per-rank handles (whose
	// procState persists across runs), and one parked worker goroutine
	// per rank. workerLoop closes over only its channel, never the
	// World, so an unreferenced World remains collectable.
	worldGrp *group
	procs    []*Proc
	workers  []chan func()

	// Communicator context-id registry: every derived communicator's
	// context id is a deterministic function of its (ordered) global
	// membership, so member ranks can construct the same communicator
	// without exchanging a single message and still agree on the id.
	ctxMu   sync.Mutex
	ctxIDs  map[string]uint32 // membership signature -> context id
	ctxSigs map[uint32]string // context id -> signature (collision probe)

	// closeMu guards closed; Close parks the workers and further Runs
	// fail fast.
	closeMu sync.Mutex
	closed  bool

	// pool recycles real message payloads across the whole world: the
	// sending rank Gets at capture time, the receiving rank Puts after
	// copy-out (payloads cross goroutines, hence a locked pool and not
	// the per-rank arenas). arenas holds each rank's single-owner
	// scratch free list behind AllocBuf; it is indexed by global rank
	// and persists across Runs. checks turns on the pool's
	// double-free/poison debugging (WithTransportChecks).
	pool     buffer.Pool
	arenas   []*buffer.Arena
	checks   bool
	runStats RunStats

	tracing bool
	tr      *trace.Trace // event log of the last Run, nil unless tracing

	// idle packs the goroutine backend's deadlock accounting into one
	// word, so the atomic add that changes either count also returns a
	// consistent snapshot of both: the low 32 bits count ranks asleep
	// in a receive that no sender has reached since (see
	// Proc.sleepLocked), the high 32 bits (idleFinished each) count
	// ranks whose functions have returned.
	idle atomic.Int64
	dead atomic.Bool // run aborted (deadlock declared or deadline hit)

	// deadMu guards the abort diagnostic, its external cause, and the
	// run generation; gen keeps a stale watchdog from a previous Run
	// from aborting the next one. deadErr is a *DeadlockError or a
	// *RankFailedError depending on what aborted the run.
	deadMu   sync.Mutex
	deadErr  error
	ctxCause error // context error behind the abort, for errors.Is
	gen      int64
}

// Option configures a World.
type Option func(*World)

// WithModel sets the machine cost model (default machine.Theta()).
func WithModel(m machine.Model) Option { return func(w *World) { w.model = m } }

// WithPhantom makes Proc.AllocBuf return phantom (size-only) buffers, so
// large-scale simulations carry no payload memory. Correctness-sensitive
// callers should leave it off.
func WithPhantom() Option { return func(w *World) { w.phantom = true } }

// WithRanksPerNode places consecutive ranks on shared-memory nodes of
// the given size: messages between ranks on the same node use the
// model's (much cheaper) intra-node parameters and skip network
// congestion. The default of 1 makes every message inter-node.
// NewWorld rejects n <= 0 and normalizes n larger than the world size
// down to the world size; a node width that does not divide the world
// size is allowed — the last node is simply smaller.
func WithRanksPerNode(n int) Option {
	return func(w *World) { w.ranksPerNode, w.rpnSet = n, true }
}

// WithFaults installs a deterministic perturbation plan (see
// internal/fault): straggler ranks whose send/receive/compute costs are
// scaled by the plan's slowdown factor, and per-message wire jitter.
// All injected delay is priced into the virtual clocks exactly like
// model costs, so perturbed runs stay bit-reproducible for a given
// (plan, algorithm, workload); with tracing enabled, injected delay is
// recorded as its own event kind (trace.KindFault). A disabled plan
// (no stragglers, zero jitter) leaves timings bit-identical to a world
// with no fault layer. Straggler identity and jitter draws are functions
// of global ranks, so timings do not depend on which communicator
// carried a message.
func WithFaults(pl fault.Plan) Option {
	return func(w *World) { w.faults = pl; w.faultsOn = true }
}

// WithDeadline arms a wall-clock watchdog on each Run: if the run has
// not completed after d, it is aborted and Run returns a DeadlockError
// naming every blocked rank and its pending (src, tag) — the same
// diagnostic the deadlock detector produces, for hangs (e.g. livelocks
// under chaos testing) the blocked-rank detector cannot see. It is
// implemented as a context deadline: Run behaves exactly like
// RunContext with a context that times out after d, and the returned
// error additionally matches errors.Is(err, context.DeadlineExceeded).
// Aborting is best-effort: ranks are interrupted at their next blocking
// receive, so a rank spinning in pure compute is not stopped. 0 (the
// default) disables the watchdog.
func WithDeadline(d time.Duration) Option { return func(w *World) { w.deadline = d } }

// WithTransportChecks enables debug validation on the transport's
// payload pool: a payload returned twice panics instead of corrupting
// the free list, and recycled memory is poisoned (0xDB) so any
// use-after-return read is conspicuous rather than silently stale. It
// costs a map operation per message, so it is meant for tests — the
// conformance and chaos suites run with it on — not for large
// simulations.
func WithTransportChecks() Option { return func(w *World) { w.checks = true } }

// WithTrace records a structured event log (sends, receives, local
// copies, phases) on the virtual timeline during each Run, available
// afterwards from World.Trace. Tracing is observational: it never
// alters virtual time, so traced and untraced runs produce identical
// timings. Off by default; recording sites are nil-checked so the
// default costs nothing.
func WithTrace() Option { return func(w *World) { w.tracing = true } }

// NewWorld creates a world with size ranks. The rank goroutines are not
// spawned until the first Run.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &World{size: size, model: machine.Theta()}
	for _, o := range opts {
		o(w)
	}
	if err := w.model.Validate(); err != nil {
		return nil, err
	}
	if w.rpnSet && w.ranksPerNode < 1 {
		return nil, fmt.Errorf("mpi: ranks per node %d < 1", w.ranksPerNode)
	}
	if w.ranksPerNode < 1 {
		w.ranksPerNode = 1
	}
	if w.ranksPerNode > size {
		w.ranksPerNode = size
	}
	if w.deadline < 0 {
		return nil, fmt.Errorf("mpi: negative deadline %v", w.deadline)
	}
	if w.faultsOn {
		if err := w.faults.Validate(); err != nil {
			return nil, err
		}
		if !w.faults.Enabled() {
			w.faultsOn = false // inert plan: take the exact clean paths
		} else {
			w.straggler = w.faults.StragglerMask(size)
			if w.faults.MessageFaults() {
				w.rel = true
				w.crashPlan = w.faults.CrashTimes(size)
				w.relRTO = w.faults.RTONs
				if w.relRTO <= 0 {
					// Default retransmission timeout: a few clean
					// round trips of the machine model, so retries are
					// expensive relative to a send but not absurd.
					w.relRTO = 4 * (w.model.SendOverhead + w.model.RecvOverhead + w.model.Latency)
					if w.relRTO < 1 {
						w.relRTO = 1
					}
				}
				w.relBackoff = w.faults.BackoffFactor()
				w.relRetries = w.faults.RetryBudget()
			}
		}
	}
	w.geff = w.model.EffectiveByteTime(size)
	w.memcpyFixed, w.memcpyByte = w.model.MemcpyFixed, w.model.MemcpyByte
	w.collFactor = w.model.CollFactor()
	w.intraOS, w.intraOR, w.intraL, w.intraG = w.model.IntraParams()
	if w.checks {
		w.pool.SetDebug(true)
	}
	return w, nil
}

// memcpyCost is machine.Model.MemcpyCost over the cached terms: the
// same expression, so charged times are bit-identical.
func (w *World) memcpyCost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return w.memcpyFixed + float64(n)*w.memcpyByte
}

// Faults returns the world's active fault plan and whether one is
// enabled.
func (w *World) Faults() (fault.Plan, bool) { return w.faults, w.faultsOn }

// RanksPerNode returns the node width configured with WithRanksPerNode.
func (w *World) RanksPerNode() int { return w.ranksPerNode }

// SameNode reports whether two global ranks share a node.
func (w *World) SameNode(a, b int) bool {
	return a/w.ranksPerNode == b/w.ranksPerNode
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Model returns the world's machine model.
func (w *World) Model() machine.Model { return w.model }

// Phantom reports whether AllocBuf returns phantom buffers.
func (w *World) Phantom() bool { return w.phantom }

// workerLoop is one resident rank worker: it executes the job sent for
// each Run and parks on the channel in between. It deliberately closes
// over nothing but its channel — in particular not the World — so
// parked workers never keep an abandoned World (and its arenas and
// pools) reachable.
func workerLoop(ch chan func()) {
	for f := range ch {
		f()
	}
}

// initSession spawns the session: the world group, the per-rank resident
// state, and one parked worker goroutine per rank.
func (w *World) initSession() {
	ids := make([]int, w.size)
	for i := range ids {
		ids[i] = i
	}
	w.worldGrp = &group{ctx: 0, ranks: ids}
	if w.arenas == nil {
		w.arenas = make([]*buffer.Arena, w.size)
	}
	w.procs = make([]*Proc, w.size)
	if w.executor == ExecutorEvents {
		// The event backend spawns carrier goroutines lazily per Run
		// (they exit when the rank function returns), so the session
		// keeps no resident goroutines at all — the part of the
		// per-rank footprint the backend exists to shed at mega-scale.
		w.ev = newEvSched(w)
		for r := 0; r < w.size; r++ {
			w.procs[r] = newProc(w, r)
		}
		return
	}
	w.workers = make([]chan func(), w.size)
	for r := 0; r < w.size; r++ {
		w.procs[r] = newProc(w, r)
		ch := make(chan func())
		w.workers[r] = ch
		go workerLoop(ch)
	}
}

// Close ends the session: the resident rank goroutines exit and further
// Runs fail. Closing is idempotent but not optional: every rank's state
// points back at the World, so an unclosed World is never reclaimed and
// its parked rank goroutines live for the rest of the process. It must
// not be called concurrently with Run.
func (w *World) Close() {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for _, ch := range w.workers {
		close(ch)
	}
	w.workers = nil
}

// membershipSig canonically encodes an ordered global-rank list.
func membershipSig(ranks []int) string {
	b := make([]byte, 0, len(ranks)*3)
	for _, r := range ranks {
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ',')
	}
	return string(b)
}

// ctxFor returns the context id for the communicator with the given
// ordered global membership, allocating one on first use. The id is a
// hash of the membership (probed past rare collisions in first-come
// order under the registry lock), so all member ranks — and repeated
// derivations of the same communicator — agree on it without
// communicating, and ids are stable run to run. The full world
// membership maps to the world context 0.
func (w *World) ctxFor(ranks []int) uint32 {
	if len(ranks) == w.size {
		identity := true
		for i, r := range ranks {
			if r != i {
				identity = false
				break
			}
		}
		if identity {
			return 0
		}
	}
	sig := membershipSig(ranks)
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	if w.ctxIDs == nil {
		w.ctxIDs = make(map[string]uint32)
		w.ctxSigs = make(map[uint32]string)
	}
	if id, ok := w.ctxIDs[sig]; ok {
		return id
	}
	h := fnv.New32a()
	h.Write([]byte(sig))
	id := h.Sum32()
	for {
		if id == 0 {
			id = 1
		}
		if _, taken := w.ctxSigs[id]; !taken {
			break
		}
		id++
	}
	w.ctxIDs[sig] = id
	w.ctxSigs[id] = sig
	return id
}

// Run executes fn once per rank on the session's resident workers and
// blocks until all ranks return. It returns the joined errors of all
// ranks; a panic in a rank is converted into an error. Run may be called
// many times; each call starts from fresh clocks and mailboxes, reusing
// the session's goroutines and warm per-rank state.
func (w *World) Run(fn func(p *Proc) error) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run bounded by a context: when ctx is canceled or its
// deadline passes mid-run, the run is aborted with the same per-rank
// blocked-state report (DeadlockError) the deadlock detector and
// WithDeadline watchdog produce, and the returned error matches
// errors.Is against ctx's error (context.Canceled or
// context.DeadlineExceeded). Like the watchdog, cancellation is
// best-effort: ranks are interrupted at their next blocking receive.
func (w *World) RunContext(ctx context.Context, fn func(p *Proc) error) error {
	w.closeMu.Lock()
	if w.closed {
		w.closeMu.Unlock()
		return errors.New("mpi: Run on closed World")
	}
	if w.procs == nil {
		w.initSession()
	}
	w.closeMu.Unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("mpi: run not started: %w", err)
	}

	hostStart := time.Now()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pool0 := w.pool.Stats()
	w.idle.Store(0)
	w.dead.Store(false)
	w.deadMu.Lock()
	w.gen++
	gen := w.gen
	w.deadErr = nil
	w.ctxCause = nil
	w.deadMu.Unlock()
	if w.tracing {
		w.tr = trace.New(w.size)
	}
	for r := 0; r < w.size; r++ {
		var tb *trace.Buffer
		if w.tracing {
			tb = w.tr.Buffer(r)
		}
		w.procs[r].procState.reset(tb)
		// This run's death time for the rank: 0 for ranks that died in
		// an earlier Run, the fault plan's crash time otherwise (-1 =
		// never). Senders price retransmissions against the same value
		// through deadAt.
		w.procs[r].procState.crashAt = w.deadAt(r)
	}
	var scratch0 buffer.PoolStats
	for _, a := range w.arenas {
		scratch0 = scratch0.Add(a.Stats())
	}

	// The watchdog deadline is a context deadline layered over the
	// caller's context; the watcher goroutine translates whichever
	// fires first into an abort with the classic blocked-state report.
	rctx := ctx
	if w.deadline > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, w.deadline)
		defer cancel()
	}
	watcherDone := make(chan struct{})
	if rctx.Done() != nil {
		go func() {
			select {
			case <-rctx.Done():
				cause := rctx.Err()
				var reason string
				switch {
				case cause == context.DeadlineExceeded && ctx.Err() == nil && w.deadline > 0:
					reason = fmt.Sprintf("wall-clock deadline %v exceeded", w.deadline)
				case cause == context.Canceled:
					reason = "context canceled"
				default:
					reason = "context deadline exceeded"
				}
				w.declareDeadCause(gen, reason, cause)
			case <-watcherDone:
			}
		}()
	}

	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	if w.ev != nil {
		// Event backend: the scheduler dispatches every live rank in
		// virtual-clock order on a bounded carrier set and detects
		// deadlock itself (see evSched.escalate); idle is unused.
		w.ev.launch(fn, errs, &wg)
	} else {
		for r := 0; r < w.size; r++ {
			p := w.procs[r]
			if w.failed != nil && w.failed[p.grank] {
				// A rank that died in an earlier Run never executes again:
				// it counts as finished from the start, and the transport
				// treats it as crashed at virtual time zero (see deadAt).
				w.idle.Add(idleFinished)
				wg.Done()
				continue
			}
			w.workers[r] <- func() {
				defer wg.Done()
				defer func() {
					w.classifyRankPanic(recover(), p, errs)
					// A rank exiting early (error, panic, or crash) can
					// strand the others mid-collective; its exit may
					// complete the deadlock condition.
					if w.quiescent(w.idle.Add(idleFinished)) {
						w.declareDeadlock()
					}
				}()
				errs[p.rank] = fn(p)
			}
		}
	}
	wg.Wait()
	close(watcherDone)
	w.sweepInboxes()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	var scratch1 buffer.PoolStats
	for _, a := range w.arenas {
		scratch1 = scratch1.Add(a.Stats())
	}
	w.runStats = RunStats{
		WallNs:     time.Since(hostStart).Nanoseconds(),
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		NumGC:      ms1.NumGC - ms0.NumGC,
		GCPauseNs:  ms1.PauseTotalNs - ms0.PauseTotalNs,
		Pool:       w.pool.Stats().Sub(pool0),
		Scratch:    scratch1.Sub(scratch0),
	}
	err := errors.Join(errs...)

	// Reliability epilogue: fold this run's rank deaths into the
	// permanent failure record and classify the abort error. Runs after
	// wg.Wait, so no rank goroutine is active.
	crashedNow := w.crashedRun
	w.crashedRun = nil
	var abortErr, cause error
	if w.dead.Load() {
		w.deadMu.Lock()
		abortErr, cause = w.deadErr, w.ctxCause
		w.deadMu.Unlock()
	}
	failedNow := append([]int(nil), crashedNow...)
	if rfe, ok := abortErr.(*RankFailedError); ok {
		failedNow = append(failedNow, rfe.Failed...)
	} else if len(crashedNow) > 0 {
		// Ranks died but nothing declared a failure directly: either
		// the survivors deadlocked waiting on the dead ranks' sends
		// (abortErr is a DeadlockError), or the run completed because
		// the deaths came after all communication. Both become a
		// RankFailedError naming every rank the plan kills, so the
		// failed set matches what the exhaustion path would report.
		for g := 0; g < w.size; g++ {
			if w.deadAt(g) >= 0 {
				failedNow = append(failedNow, g)
			}
		}
		failedNow = dedupSortInts(failedNow)
		if de, ok := abortErr.(*DeadlockError); ok {
			abortErr = &RankFailedError{
				Reason:    fmt.Sprintf("%d rank(s) crashed and the survivors blocked on their sends (%s)", len(crashedNow), de.Reason),
				WorldSize: w.size, Failed: failedNow, Blocked: de.Blocked,
			}
		} else if abortErr == nil {
			abortErr = &RankFailedError{
				Reason:    fmt.Sprintf("%d rank(s) reached their fault-plan crash time mid-run", len(crashedNow)),
				WorldSize: w.size, Failed: failedNow,
			}
		}
	}
	if len(failedNow) > 0 {
		if w.failed == nil {
			w.failed = make([]bool, w.size)
		}
		for _, g := range failedNow {
			if g >= 0 && g < w.size {
				w.failed[g] = true
			}
		}
	}
	if abortErr != nil {
		if cause != nil {
			return errors.Join(abortErr, cause, err)
		}
		return errors.Join(abortErr, err)
	}
	return err
}

// Trace returns the event log of the last Run, or nil if the world was
// not created with WithTrace (or has not run yet).
func (w *World) Trace() *trace.Trace { return w.tr }

// MaxTime returns the maximum virtual clock over all ranks of the last
// Run, in nanoseconds.
func (w *World) MaxTime() float64 {
	var t float64
	for _, p := range w.procs {
		if p != nil && p.now > t {
			t = p.now
		}
	}
	return t
}

// TotalBytes returns the total bytes sent across all ranks of the last
// Run.
func (w *World) TotalBytes() int64 {
	var b int64
	for _, p := range w.procs {
		if p != nil {
			b += p.bytesSent
		}
	}
	return b
}

// TotalMessages returns the total point-to-point messages sent across all
// ranks of the last Run.
func (w *World) TotalMessages() int64 {
	var n int64
	for _, p := range w.procs {
		if p != nil {
			n += p.msgsSent
		}
	}
	return n
}

// MaxPhase returns, for each phase name recorded by any rank during the
// last Run, the maximum accumulated virtual time across ranks.
func (w *World) MaxPhase() map[string]float64 {
	out := map[string]float64{}
	for _, p := range w.procs {
		if p == nil {
			continue
		}
		for name, t := range p.phases {
			if t > out[name] {
				out[name] = t
			}
		}
	}
	return out
}

// sweepInboxes returns every payload still queued in a rank's inbox to
// the pool after all rank goroutines have joined. A clean collective
// consumes everything it was sent, but a rank that errored, panicked,
// or was aborted mid-run strands the messages addressed to it; without
// the sweep those payloads would count as leaks forever and
// Pool.Outstanding would stop being a useful invariant. Runs after the
// goroutines join, so no locking is needed.
func (w *World) sweepInboxes() {
	for _, p := range w.procs {
		for _, q := range p.box.q {
			for i := q.head; i < len(q.msgs); i++ {
				w.pool.Put(q.msgs[i].payload)
				q.msgs[i] = message{}
			}
			q.msgs = q.msgs[:0]
			q.head = 0
		}
		// A rank that unwound inside Waitall's completion pass leaves
		// matched messages it never landed.
		for i := range p.pend {
			w.pool.Put(p.pend[i].msg.payload)
			p.pend[i] = pendingMatch{}
		}
		p.pend = p.pend[:0]
		for i := range p.box.parked {
			p.box.parked[i] = nil
		}
		p.box.parked = p.box.parked[:0]
	}
}

// idleFinished is one finished rank in World.idle.
const idleFinished = 1 << 32

// quiescent reports whether an idle snapshot is a deadlock: some rank
// is asleep in a receive and every other rank is asleep too or has
// returned. Sends in this runtime never block and only a running rank
// can wake a sleeping one, so the condition cannot resolve itself.
func (w *World) quiescent(idle int64) bool {
	asleep, finished := idle&(idleFinished-1), idle/idleFinished
	return asleep > 0 && asleep+finished == int64(w.size)
}

// declareDeadlock aborts the current run with the deadlock verdict. The
// rank whose sleep or return made the world quiescent calls it.
func (w *World) declareDeadlock() {
	w.deadMu.Lock()
	gen := w.gen
	w.deadMu.Unlock()
	w.declareDead(gen, "deadlock detected: every live rank is blocked waiting for a message")
}

// declareDead aborts the current run (if gen still names it): it marks
// the world dead, snapshots every blocked rank's pending receives into
// a DeadlockError, and wakes all waiters so they unwind. Idempotent.
func (w *World) declareDead(gen int64, reason string) {
	w.declareDeadCause(gen, reason, nil)
}

// declareDeadCause is declareDead carrying the external error (a context
// cancellation or deadline) behind the abort, joined into Run's returned
// error so callers can errors.Is against it.
func (w *World) declareDeadCause(gen int64, reason string, cause error) {
	w.declareAbort(gen, reason, cause, nil)
}

// declareAbort is the single abort path: if gen still names the current
// run, it snapshots every blocked rank's pending receives, marks the
// world dead, wakes all waiters so they unwind, and records the
// diagnostic — a DeadlockError, or a RankFailedError when the caller
// names failed ranks (the reliability layer's retry-budget exhaustion).
// Idempotent: the first declaration wins.
func (w *World) declareAbort(gen int64, reason string, cause error, failed []int) {
	w.deadMu.Lock()
	if gen != w.gen || w.dead.Load() {
		w.deadMu.Unlock()
		return
	}
	// Snapshot the blocked ranks before publishing dead: a rank that
	// sees dead clears its wait record and unwinds, so one that got
	// there before its box was locked here would drop out of the
	// report. deadMu serializes declarers, so nothing else sets dead in
	// between.
	var blocked []BlockedRank
	for _, p := range w.procs {
		p.box.mu.Lock()
		if p.waitOp != "" {
			blocked = append(blocked, BlockedRank{
				Rank:    p.grank,
				Op:      p.waitOp,
				Pending: append([]PendingRecv(nil), p.waitPending...),
				SinceNs: p.waitSince,
			})
		}
		p.box.mu.Unlock()
	}
	w.dead.Store(true)
	for _, p := range w.procs {
		p.box.mu.Lock()
		p.box.cond.Broadcast()
		p.box.mu.Unlock()
	}
	// Attribute sub-communicator pending receives to global ranks: hot
	// paths record the communicator-local source, and only here — off
	// the hot path, with the run wedged — is the translation worth its
	// cost.
	for i := range blocked {
		for j := range blocked[i].Pending {
			pr := &blocked[i].Pending[j]
			if pr.Comm != 0 {
				pr.GlobalSrc = w.globalOf(uint32(pr.Comm), pr.Src)
			} else {
				pr.GlobalSrc = pr.Src
			}
		}
	}
	if len(failed) > 0 {
		w.deadErr = &RankFailedError{Reason: reason, WorldSize: w.size,
			Failed: dedupSortInts(failed), Blocked: blocked}
	} else {
		w.deadErr = &DeadlockError{Reason: reason, WorldSize: w.size, Blocked: blocked}
	}
	w.ctxCause = cause
	w.deadMu.Unlock()
	if w.ev != nil {
		// Event backend: blocked and credit-parked ranks are not waiting
		// on the conds broadcast above; ready them so they observe the
		// dead flag and unwind.
		w.ev.wakeAllBlocked()
	}
}
