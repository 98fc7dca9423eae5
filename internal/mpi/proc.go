package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bruckv/internal/buffer"
	"bruckv/internal/trace"
)

// Proc is one rank's handle onto a communicator. The world's Run hands
// each rank a handle on the world communicator; Split, Group, and
// SplitByNode derive handles scoped to a subset of ranks with their own
// rank numbering. All handles of one rank share the same underlying
// per-rank state (clocks, mailbox, arena), so a rank goroutine may hold
// several communicator handles but uses them sequentially, exactly like
// an MPI process holding several communicators. All methods must be
// called only from the goroutine Run started for this rank.
type Proc struct {
	*procState

	// grp is the communicator this handle is scoped to; rank is this
	// rank's id within grp (equal to the global rank on the world
	// communicator).
	grp  *group
	rank int
}

// group is a communicator's membership: a context id that isolates its
// point-to-point matching from every other communicator in the world,
// plus the local-to-global rank translation table.
type group struct {
	ctx   uint32
	ranks []int // local rank -> global rank
}

// procState is the per-global-rank runtime state. It is resident: it
// lives on the World and persists across Run calls (reset between
// runs), so iterated workloads keep warm mailbox buckets, request free
// lists, and scratch arenas.
type procState struct {
	w     *World
	grank int // global (world) rank

	// Virtual clocks, in nanoseconds. now is the CPU clock; txFree and
	// rxFree are the times at which the injection and drain paths of this
	// rank's network link become free.
	now    float64
	txFree float64
	rxFree float64

	box inbox

	// arena is this rank's single-owner scratch free list behind
	// AllocBuf/AllocReal. It lives on the World (indexed by rank) so it
	// also survives world recreation in benchmarks that reuse arenas.
	arena *buffer.Arena

	// ints is this rank's free list of int scratch behind AllocInts:
	// the slices returned by FreeInts, each kept at its full capacity.
	ints [][]int

	// Request recycling and reusable Waitall state. reqFree holds
	// handles returned via FreeRequests. waitSeq is a per-rank Waitall
	// call counter used to detect duplicate requests without allocating
	// a set (each request is stamped with the call that last saw it).
	// wanted/wkeys/pend/wOutstanding are Waitall's working structures,
	// kept on the state so repeated calls reuse their backing storage.
	reqFree      []*Request
	waitSeq      int64
	wanted       map[matchKey]*reqQueue
	rqFree       []*reqQueue
	wkeys        []matchKey
	pend         pendHeap
	wOutstanding int

	// slow is this rank's straggler slowdown factor from the world's
	// fault plan (1 when unperturbed); it scales send/receive costs and
	// Charge'd compute.
	slow float64

	// crashAt is this rank's death time on its own virtual clock for
	// the current run (-1 = never): the fault plan's crash time, or 0
	// for a rank recorded as failed by an earlier Run. Checkpoints in
	// sendf, completeRecvf, and Charge compare now against it and
	// unwind the rank with a rankCrash panic once reached. Set by
	// RunContext before dispatch each run.
	crashAt float64

	// Blocked-state record for deadlock/watchdog diagnostics, guarded
	// by box.mu: while this rank is blocked in Recv or Waitall, waitOp
	// names the call and waitPending the unmatched (comm, src, tag)
	// triples. pendScratch backs the one-element waitPending of a
	// blocking Recv so registering the wait never allocates
	// (diagnostics copy the contents under box.mu before the next
	// reuse).
	waitOp      string
	waitPending []PendingRecv
	waitSince   float64
	pendScratch [1]PendingRecv
	waitPendBuf pendRecvs

	bytesSent int64
	msgsSent  int64

	phases     map[string]float64
	phaseStack []*phaseMark

	// nodeComms memoizes SplitByNode results per parent group. Group
	// membership is immutable and the derivation is deterministic, so
	// the cache is never invalidated; with resident state it makes
	// repeated node-aware collectives communicator-setup free.
	nodeComms map[*group]*nodeSplit

	// tr is this rank's trace event buffer, nil unless the world was
	// created with WithTrace; every hot-path recording site nil-checks
	// it so tracing off costs nothing. step is the collective step tag
	// applied to recorded events (trace.NoStep outside any step).
	tr   *trace.Buffer
	step int

	// Event-backend state (see internal/mpi/events.go), unused under
	// the goroutine backend. evResume carries this rank's resume token
	// (buffered 1, at most one in flight); evState is the scheduler's
	// view of the rank, guarded by evSched.mu; evSpawned records whether
	// this run's carrier goroutine exists; evForce, set by the
	// scheduler's stall escalation, lets one send bypass the inbox
	// credit check (atomic so the sender reads it without taking
	// evSched.mu inside box.mu).
	evResume  chan struct{}
	evState   int32
	evSpawned bool
	evForce   atomic.Bool
}

type phaseMark struct {
	name   string
	start  float64
	child  float64 // virtual time spent in nested phases
	closed bool
}

type message struct {
	src     int // sender's rank local to the message's communicator
	gsrc    int // sender's global rank (node placement, fault identity)
	ctx     uint32
	tag     int
	payload buffer.Buf
	size    int
	arrival float64
	seq     int64
	// Reliability envelope (active only when the world's fault plan has
	// message faults): sum is the payload's checksum at capture time,
	// verified before copy-out; dups counts the duplicate copies the
	// receiver must drain and discard because the sender's acks were
	// lost.
	sum  uint32
	dups int
}

// msgQueue is one (comm, source, tag) bucket of the inbox: a FIFO of
// queued messages with a consumed-prefix head index. Keeping the head
// instead of re-slicing lets a drained bucket reset to its full backing
// array, and emptied buckets stay in the map, so steady-state traffic
// on a recurring (comm, src, tag) triple allocates nothing.
type msgQueue struct {
	msgs []message
	head int
}

// inbox holds pending messages bucketed by (comm context, source, tag),
// so matching is O(1) even when thousands of messages are queued
// (spread-out posts P-1 receives at once) and traffic on different
// communicators can never match each other's receives.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[matchKey]*msgQueue
	seq  int64
	// arr logs arrival keys so Waitall can process only what landed
	// since its last wake instead of rescanning; arrPos is the consumed
	// prefix. Entries may be stale (consumed by direct Recv) — harmless,
	// they just miss their bucket. qn counts messages currently queued
	// across all buckets; whenever it drains to zero every arr entry is
	// stale, so the log is reset — this is what keeps arr bounded on
	// ranks that only ever use blocking Recv and never reach Waitall's
	// own compaction.
	arr    []matchKey
	arrPos int
	qn     int
	// parked lists senders waiting for credit on this inbox (event
	// backend only; see evSched.creditWait). Entries may be stale —
	// unpark's state check skips them — and the list is cleared by
	// reset between runs.
	parked []*procState
	// sleeping is set while the owning rank is parked in cond.Wait and
	// counted as asleep in World.idle (goroutine backend); the first
	// sender to enqueue, or the owner on any other wake-up, clears it
	// and uncounts the rank.
	sleeping bool
}

// noteConsumed records that n queued messages were taken out of the
// buckets; it must run under mu. When the queue fully drains, the
// arrival log holds only stale keys and is reset.
func (b *inbox) noteConsumed(n int) {
	b.qn -= n
	if b.qn == 0 {
		b.arr = b.arr[:0]
		b.arrPos = 0
	}
}

// drained is the consume-side bookkeeping for this rank's own inbox:
// noteConsumed plus, on the event backend, waking senders parked on
// the freed credit. Must run under box.mu (the rank draining an inbox
// is always its owner).
func (p *procState) drained(n int) {
	p.box.noteConsumed(n)
	if s := p.w.ev; s != nil && len(p.box.parked) > 0 {
		s.unpark(&p.box)
	}
}

// matchKey is the point-to-point matching key: communicator context id,
// sender rank local to that communicator, and tag. The context id keeps
// traffic on different communicators invisible to each other, the MPI
// context-id discipline.
type matchKey struct {
	ctx      uint32
	src, tag int32
}

func mkKey(ctx uint32, src, tag int) matchKey {
	return matchKey{ctx: ctx, src: int32(src), tag: int32(tag)}
}

func newProc(w *World, grank int) *Proc {
	st := &procState{w: w, grank: grank, phases: map[string]float64{}, step: trace.NoStep, slow: 1, crashAt: -1}
	if w.faultsOn && w.straggler[grank] {
		st.slow = w.faults.SlowdownFactor()
	}
	st.box.cond = sync.NewCond(&st.box.mu)
	st.box.q = make(map[matchKey]*msgQueue)
	st.wanted = make(map[matchKey]*reqQueue)
	if w.executor == ExecutorEvents {
		st.evResume = make(chan struct{}, 1)
	}
	if w.arenas[grank] == nil {
		w.arenas[grank] = new(buffer.Arena)
	}
	st.arena = w.arenas[grank]
	return &Proc{procState: st, grp: w.worldGrp, rank: grank}
}

// reset returns the resident state to a fresh-run condition: clocks and
// counters zeroed, phase and trace state cleared, and any Waitall index
// left over from an aborted run released. Mailbox buckets were emptied
// by the end-of-run sweep and stay warm; only the arrival log is
// rewound. tr is the rank's event buffer for the coming run (nil when
// tracing is off).
func (st *procState) reset(tr *trace.Buffer) {
	st.now, st.txFree, st.rxFree = 0, 0, 0
	st.bytesSent, st.msgsSent = 0, 0
	clear(st.phases)
	st.phaseStack = st.phaseStack[:0]
	st.tr = tr
	st.step = trace.NoStep
	st.waitOp, st.waitPending = "", nil
	st.wOutstanding = 0
	for key, rq := range st.wanted {
		delete(st.wanted, key)
		for i := range rq.reqs {
			rq.reqs[i] = nil
		}
		rq.reqs = rq.reqs[:0]
		rq.head = 0
		st.rqFree = append(st.rqFree, rq)
	}
	st.wkeys = st.wkeys[:0]
	st.pend = st.pend[:0]
	st.box.arr = st.box.arr[:0]
	st.box.arrPos = 0
	st.box.qn = 0
	for i := range st.box.parked {
		st.box.parked[i] = nil
	}
	st.box.parked = st.box.parked[:0]
}

// Rank returns this rank's id in [0, Size) within this handle's
// communicator.
func (p *Proc) Rank() int { return p.rank }

// Size returns this handle's communicator size.
func (p *Proc) Size() int { return len(p.grp.ranks) }

// GlobalRank returns this rank's id in the world communicator,
// regardless of which communicator this handle is scoped to. Node
// placement (WithRanksPerNode) and fault identity are functions of the
// global rank.
func (p *Proc) GlobalRank() int { return p.grank }

// CommID returns this handle's communicator context id: 0 for the
// world communicator, unique per derived communicator membership
// otherwise. It is the id trace events and deadlock reports attribute
// sub-communicator traffic to.
func (p *Proc) CommID() int { return int(p.grp.ctx) }

// global translates a communicator-local rank to its world rank.
func (p *Proc) global(local int) int { return p.grp.ranks[local] }

// GlobalRankOf translates a rank local to this handle's communicator to
// its world rank. Node placement (World.SameNode, RanksPerNode) is
// defined on world ranks, so locality-aware algorithms running on a
// sub-communicator translate through this.
func (p *Proc) GlobalRankOf(local int) int {
	p.checkPeer(local, "translate")
	return p.grp.ranks[local]
}

// World returns the world this rank belongs to.
func (p *Proc) World() *World { return p.w }

// Now returns this rank's virtual clock in nanoseconds.
func (p *Proc) Now() float64 { return p.now }

// Charge advances this rank's clock by ns nanoseconds of local compute.
// On a straggler rank (see WithFaults) the compute is additionally
// scaled by the plan's slowdown factor, with the injected portion
// attributed to a fault trace event.
func (p *Proc) Charge(ns float64) {
	if p.w.rel && p.crashed() {
		p.crashNow()
	}
	if ns <= 0 {
		return
	}
	p.now += ns
	if p.slow > 1 {
		extra := ns * (p.slow - 1)
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindFault, Name: "straggler(compute)",
				Start: p.now, Dur: extra, Peer: -1, Step: p.step, Comm: int(p.grp.ctx)})
		}
		p.now += extra
	}
}

// AllocBuf returns a scratch buffer of n bytes, phantom if the world was
// created with WithPhantom. Real buffers come from this rank's arena
// with UNINITIALIZED contents — every algorithm writes its scratch
// before reading it, and skipping the clear is part of what makes the
// arena cheap. Callers that want the memory back in steady state return
// it with FreeBuf; unreturned buffers are simply garbage-collected.
func (p *Proc) AllocBuf(n int) buffer.Buf {
	if p.w.phantom {
		return buffer.Phantom(n)
	}
	return p.arena.Get(n)
}

// AllocReal returns a real scratch buffer of n bytes from this rank's
// arena even in a phantom world, with uninitialized contents. It is for
// metadata that drives control flow (counts, displacements, headers),
// which must stay real when payloads are phantom.
func (p *Proc) AllocReal(n int) buffer.Buf { return p.arena.Get(n) }

// AllocInts returns n ints of scratch from this rank's resident free
// list, with unspecified contents: the int counterpart of AllocReal for
// per-call bookkeeping (rotation indices, block sizes, schedule lists)
// that a resident rank should not reallocate on every call. Return it
// with FreeInts; an unreturned slice is simply garbage-collected.
func (p *Proc) AllocInts(n int) []int {
	best := -1 // the smallest free slice that fits
	for i, s := range p.ints {
		if cap(s) >= n && (best < 0 || cap(s) < cap(p.ints[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]int, n)
	}
	s := p.ints[best]
	last := len(p.ints) - 1
	p.ints[best], p.ints[last] = p.ints[last], nil
	p.ints = p.ints[:last]
	return s[:n]
}

// FreeInts returns a slice obtained from AllocInts to this rank's free
// list. An empty-capacity slice is ignored. The slice must not be used
// again.
func (p *Proc) FreeInts(s []int) {
	if cap(s) > 0 {
		p.ints = append(p.ints, s[:0])
	}
}

// FreeBuf returns scratch buffers obtained from AllocBuf or AllocReal
// to this rank's arena for reuse. Phantom and foreign buffers are
// ignored, so callers can free unconditionally; sub-slices of a scratch
// buffer must not be freed (only the originally allocated buffer is
// recycled). A freed buffer must not be used again.
func (p *Proc) FreeBuf(bs ...buffer.Buf) {
	for _, b := range bs {
		p.arena.Put(b)
	}
}

// Memcpy copies src into dst (phantom-aware) and charges the model's
// local-copy cost for the bytes moved. It returns the byte count.
func (p *Proc) Memcpy(dst, src buffer.Buf) int {
	n := buffer.Copy(dst, src)
	start := p.now
	p.now += p.w.memcpyCost(n)
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindMemcpy, Start: start, Dur: p.now - start,
			Bytes: n, Peer: -1, Step: p.step, Comm: int(p.grp.ctx)})
	}
	return n
}

// ChargeMemcpy charges the cost of copying n bytes without moving any
// data; used where the copy itself is implied (e.g. zero-fill padding).
func (p *Proc) ChargeMemcpy(n int) {
	start := p.now
	p.now += p.w.memcpyCost(n)
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindMemcpy, Start: start, Dur: p.now - start,
			Bytes: n, Peer: -1, Step: p.step, Comm: int(p.grp.ctx)})
	}
}

// BytesSent returns the total payload bytes this rank has sent.
func (p *Proc) BytesSent() int64 { return p.bytesSent }

// MsgsSent returns the number of point-to-point messages this rank has
// sent.
func (p *Proc) MsgsSent() int64 { return p.msgsSent }

// Phase starts a named phase timer and returns the function that stops
// it. Accumulated per-phase virtual time is available from World.MaxPhase
// after the run. Typical use:
//
//	done := p.Phase("rotation")
//	...
//	done()
//
// Phases nest: virtual time spent inside a nested phase is attributed
// to the innermost open phase only, so overlapping intervals are never
// double-counted and the per-phase times of a run always sum to at most
// the run's total virtual time. Phases must be closed in LIFO order
// (innermost first); calling done more than once is a no-op. With
// tracing enabled, each phase additionally records a trace event whose
// interval is inclusive of nested phases.
func (p *Proc) Phase(name string) func() {
	m := &phaseMark{name: name, start: p.now}
	p.phaseStack = append(p.phaseStack, m)
	return func() {
		if m.closed {
			return
		}
		m.closed = true
		dur := p.now - m.start
		for i := len(p.phaseStack) - 1; i >= 0; i-- {
			if p.phaseStack[i] == m {
				p.phaseStack = append(p.phaseStack[:i], p.phaseStack[i+1:]...)
				if i > 0 {
					p.phaseStack[i-1].child += dur
				}
				break
			}
		}
		p.phases[name] += dur - m.child
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindPhase, Name: name,
				Start: m.start, Dur: dur, Peer: -1, Step: trace.NoStep, Comm: int(p.grp.ctx)})
		}
	}
}

// Phases returns this rank's accumulated per-phase virtual times.
func (p *Proc) Phases() map[string]float64 { return p.phases }

// SetStep tags subsequently recorded trace events with collective step
// k, so per-step roll-ups (trace.Trace.StepStats) can attribute bytes,
// messages, and virtual time to individual Bruck exchange steps. It is
// a no-op when tracing is off. Collectives clear the tag with ClearStep
// when the stepped loop ends.
func (p *Proc) SetStep(k int) {
	if p.tr != nil {
		p.step = k
	}
}

// ClearStep removes the collective-step tag set by SetStep.
func (p *Proc) ClearStep() { p.step = trace.NoStep }

// SyncClocks aligns the virtual clocks of this communicator's ranks to
// their maximum and resets link occupancy, giving benchmark iterations
// a clean common start. It is a collective: all ranks of this
// communicator must call it.
func (p *Proc) SyncClocks() {
	m := p.AllreduceMaxFloat64(p.now)
	p.now = m
	p.txFree = m
	p.rxFree = m
}

func (p *Proc) checkPeer(r int, what string) {
	if r < 0 || r >= len(p.grp.ranks) {
		panic(fmt.Sprintf("mpi: rank %d: %s rank %d out of range [0,%d)", p.rank, what, r, len(p.grp.ranks)))
	}
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c float64) float64 { return max2(max2(a, b), c) }
