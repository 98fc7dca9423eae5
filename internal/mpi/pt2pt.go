package mpi

import (
	"fmt"
	"sort"

	"bruckv/internal/buffer"
	"bruckv/internal/trace"
)

// Point-to-point layer.
//
// Sends in this runtime are buffered (eager): the payload is captured at
// send time, the sender's clock is charged the send overhead, its
// injection path is charged overhead plus per-byte time, and the call
// returns — the sender may immediately reuse its buffer, matching MPI's
// small-message semantics. Receives block until a matching message (by
// communicator, source, and tag, with per-triple FIFO ordering) is
// available, then charge the receive overhead and per-byte drain time,
// starting no earlier than the message's arrival (sender injection
// completion plus wire latency).
//
// Ranks in a send or receive call are local to the communicator of the
// Proc handle the call is made on; the transport translates them to
// global ranks for delivery, node placement, and fault identity. The
// communicator's context id is part of the matching key, so traffic on
// different communicators — even with identical (src, tag) pairs —
// can never match each other's receives.
//
// Payload hand-off. A message travels in a payload buffer from the
// world's pool. Send and Recv copy into and out of one; code that packs
// blocks can skip those copies by packing straight into a payload
// (PayloadBuf), handing it over (SendPayload), and unpacking straight
// from the one it receives (RecvPayload) before returning it
// (FreePayload). Send is PayloadBuf + copy + SendPayload and Recv is
// RecvPayload + copy + FreePayload, so both paths price, check and
// trace a message identically.

// PayloadBuf returns an n-byte buffer to pack a message into: a pool
// buffer with uninitialized contents when real and n > 0, else a
// phantom or empty one. Its mode should follow the data packed into it,
// not the world's phantom flag, so real metadata stays real in phantom
// worlds. Hand it to SendPayload, or return it with FreePayload.
func (p *Proc) PayloadBuf(n int, real bool) buffer.Buf {
	if real {
		return p.w.pool.Get(n)
	}
	return buffer.Phantom(n)
}

// FreePayload returns a payload from PayloadBuf or RecvPayload to the
// pool; it must not be used afterwards. Phantom and empty payloads are
// ignored, so callers can free unconditionally.
func (p *Proc) FreePayload(b buffer.Buf) { p.w.pool.Put(b) }

// Send transmits b to rank dst with the given tag. It does not block on
// the receiver.
func (p *Proc) Send(dst, tag int, b buffer.Buf) { p.sendf(dst, tag, b, 1) }

// SendPayload transmits b, a buffer from PayloadBuf, to rank dst with
// the given tag. The transport adopts b: the caller must not touch it
// again, even if the call unwinds.
func (p *Proc) SendPayload(dst, tag int, b buffer.Buf) { p.sendPayloadf(dst, tag, b, 1) }

// sendf is Send with a scale factor on the per-message overhead; the
// built-in collectives pass the model's collective factor to stand in
// for hardware-offloaded small collectives. The payload is a pool copy
// of b (eager-send semantics: the caller may reuse b at once); a
// phantom b yields a phantom payload that carries only its size.
func (p *Proc) sendf(dst, tag int, b buffer.Buf, f float64) {
	payload := p.PayloadBuf(b.Len(), b.Real())
	buffer.Copy(payload, b)
	p.sendPayloadf(dst, tag, payload, f)
}

// sendPayloadf prices and enqueues an adopted payload. A panic before
// the enqueue (a bad peer, this rank's crash, a run abort while parked
// for credit, an unreachable peer) returns the payload to the pool
// first, so the pool's outstanding count stays an invariant.
func (p *Proc) sendPayloadf(dst, tag int, payload buffer.Buf, f float64) {
	enqueued := false
	defer func() {
		if !enqueued {
			p.FreePayload(payload)
		}
	}()
	p.checkPeer(dst, "send to")
	if p.w.rel && p.crashed() {
		p.crashNow()
	}
	gdst := p.grp.ranks[dst]
	if s := p.w.ev; s != nil && gdst != p.grank {
		// Event backend flow control: park while the destination inbox
		// is at capacity. Parking happens before any pricing and charges
		// nothing, so virtual timings are unaffected; self-sends skip it
		// (a rank cannot drain its own inbox while parked on it).
		s.creditWait(p, gdst)
	}
	n := payload.Len()
	os, g, l := p.w.model.SendOverhead, p.w.geff, p.w.model.Latency
	if p.w.SameNode(p.grank, gdst) {
		os, g, l = p.w.intraOS, p.w.intraG, p.w.intraL
	}
	start := max2(p.now, p.txFree)
	ovh, inj := os*f, float64(n)*g
	if p.w.faultsOn {
		// Straggler slowdown scales the sender's CPU overhead and
		// injection; jitter inflates this message's wire cost (per-byte
		// time and latency). The jitter draw is a pure function of
		// (plan, global sender, global destination, per-sender message
		// index), so perturbed timings stay bit-reproducible across runs
		// and identical no matter which communicator carried the message.
		j := p.w.faults.JitterFor(p.grank, gdst, p.msgsSent)
		sOvh, sInj, sLat := ovh*p.slow, inj*p.slow*(1+j), l*(1+j)
		if extra := (sOvh + sInj + sLat) - (ovh + inj + l); extra > 0 && p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindFault, Name: faultName(p.slow > 1, j > 0) + "(send)",
				Start: start + ovh + inj, Dur: extra, Bytes: n, Peer: gdst, Tag: tag, Step: p.step, Comm: int(p.grp.ctx)})
		}
		ovh, inj, l = sOvh, sInj, sLat
	}
	// Reliable delivery: price the whole loss/corruption/crash recovery
	// sequence — failed copies, timeout gaps with backoff, duplicate
	// retransmissions after lost acks — into the sender's injection
	// path, as a pure function of (seed, sender, destination, sequence
	// number). relPre lands before the winning copy's injection, relPost
	// after it; dups rides the envelope so the receiver prices the
	// drains of the discarded duplicates.
	var relPre, relPost float64
	var dups int
	if p.w.rel {
		relPre, relPost, dups = p.relPrice(gdst, tag, n, start, ovh, inj, l)
	}
	txDone := start + ovh + relPre + inj
	p.txFree = txDone + relPost
	p.now = start + ovh
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindSend, Start: start, Dur: txDone - start,
			Bytes: n, Peer: gdst, Tag: tag, Step: p.step, Comm: int(p.grp.ctx)})
	}

	var sum uint32
	if p.w.rel {
		sum = envelopeSum(payload)
	}
	p.bytesSent += int64(n)
	p.msgsSent++

	dp := p.w.procs[gdst]
	key := mkKey(p.grp.ctx, p.rank, tag)
	dp.box.mu.Lock()
	dp.box.seq++
	q := dp.box.q[key]
	if q == nil {
		q = &msgQueue{}
		dp.box.q[key] = q
	}
	q.msgs = append(q.msgs, message{
		src: p.rank, gsrc: p.grank, ctx: p.grp.ctx, tag: tag,
		payload: payload, size: n,
		arrival: txDone + l, seq: dp.box.seq,
		sum: sum, dups: dups,
	})
	enqueued = true
	dp.box.arr = append(dp.box.arr, key)
	dp.box.qn++
	if s := p.w.ev; s != nil {
		s.wake(dp.procState)
	} else {
		if dp.box.sleeping {
			dp.box.sleeping = false
			p.w.idle.Add(-1)
		}
		dp.box.cond.Broadcast()
	}
	dp.box.mu.Unlock()
}

// Recv blocks until a message with the given source and tag arrives on
// this handle's communicator, copies it into b, advances the clock, and
// returns the message size. It panics if the message is larger than b
// (truncation, an MPI error).
func (p *Proc) Recv(src, tag int, b buffer.Buf) int {
	p.checkPeer(src, "receive from")
	msg := p.matchBlocking(p.grp.ctx, src, tag)
	return p.completeRecv(msg, b)
}

// RecvPayload is Recv without the copy-out: it matches, prices and
// checks the message exactly as Recv does for a max-byte buffer, and
// returns the message's payload, which the caller now owns and returns
// with FreePayload. The payload's length is the message size.
func (p *Proc) RecvPayload(src, tag, max int) buffer.Buf {
	p.checkPeer(src, "receive from")
	msg := p.matchBlocking(p.grp.ctx, src, tag)
	return p.landf(msg, max, 1)
}

func (p *Proc) completeRecv(msg message, b buffer.Buf) int { return p.completeRecvf(msg, b, 1) }

func (p *Proc) completeRecvf(msg message, b buffer.Buf, f float64) int {
	payload := p.landf(msg, b.Len(), f)
	buffer.Copy(b, payload)
	p.FreePayload(payload)
	return msg.size
}

// landf lands a matched message for a receive of at most max bytes:
// the crash and truncation checks, the receive pricing, the trace, and
// the envelope check. It hands back the payload. A crash or truncation
// returns it to the pool first; a failed envelope check does not, since
// the corrupted buffer may already be owned twice.
func (p *Proc) landf(msg message, max int, f float64) buffer.Buf {
	if p.w.rel && p.crashed() {
		// The rank's clock passed its death time before it could land
		// this message; return the payload so the pool's outstanding
		// count stays an invariant, then unwind as a crash.
		p.FreePayload(msg.payload)
		p.crashNow()
	}
	if msg.size > max {
		p.FreePayload(msg.payload)
		panic(fmt.Sprintf("mpi: rank %d: message from %d tag %d truncated: %d bytes into %d-byte buffer",
			p.rank, msg.src, msg.tag, msg.size, max))
	}
	or, g := p.w.model.RecvOverhead, p.w.geff
	if p.w.SameNode(p.grank, msg.gsrc) {
		or, g = p.w.intraOR, p.w.intraG
	}
	start := max3(p.now, p.rxFree, msg.arrival)
	ovh, drain := or*f, float64(msg.size)*g
	if p.slow > 1 {
		// A straggler receiver drains its link more slowly; the wire
		// jitter was already priced into msg.arrival by the sender.
		sOvh, sDrain := ovh*p.slow, drain*p.slow
		if extra := (sOvh + sDrain) - (ovh + drain); extra > 0 && p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindFault, Name: "straggler(recv)",
				Start: start + ovh + drain, Dur: extra, Bytes: msg.size, Peer: msg.gsrc, Tag: msg.tag, Step: p.step, Comm: int(msg.ctx)})
		}
		ovh, drain = sOvh, sDrain
	}
	done := start + ovh + drain
	p.rxFree = done
	if msg.dups > 0 {
		// Duplicate copies from ack-loss retransmissions occupy the
		// drain path after the accepted copy; the CPU discards them
		// without advancing now.
		dupCost := float64(msg.dups) * drain
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindDrop, Name: "dup",
				Start: done, Dur: dupCost, Bytes: msg.size * msg.dups,
				Peer: msg.gsrc, Tag: msg.tag, Step: p.step, Comm: int(msg.ctx)})
		}
		p.rxFree = done + dupCost
	}
	p.now = done
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindRecv, Start: start, Dur: done - start,
			Bytes: msg.size, Peer: msg.gsrc, Tag: msg.tag, Step: p.step, Comm: int(msg.ctx)})
	}
	if p.w.rel {
		// Envelope verification: modeled corruption never reaches this
		// point (relPrice priced those copies as retransmitted), so a
		// mismatch means the transport itself corrupted a payload — a
		// pool use-after-free — and must be loud.
		if got := envelopeSum(msg.payload); got != msg.sum {
			panic(fmt.Sprintf("mpi: rank %d: envelope checksum mismatch on message from %d tag %d (%#x != %#x): transport corrupted a payload",
				p.rank, msg.src, msg.tag, got, msg.sum))
		}
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindAck, Start: done, Dur: 0,
				Bytes: msg.size, Peer: msg.gsrc, Tag: msg.tag, Step: p.step, Comm: int(msg.ctx)})
		}
	}
	return msg.payload
}

// faultName labels a fault event by its perturbation sources.
func faultName(straggler, jitter bool) string {
	switch {
	case straggler && jitter:
		return "straggler+jitter"
	case straggler:
		return "straggler"
	default:
		return "jitter"
	}
}

// matchBlocking removes and returns the first queued message matching
// (ctx, src, tag), blocking until one exists. If the run is aborted
// while blocked (deadlock declared, a WithDeadline watchdog expired, or
// a RunContext context canceled), it unwinds the rank goroutine with a
// runAbort panic; the diagnostic reaches the caller through Run's
// DeadlockError.
func (p *Proc) matchBlocking(ctx uint32, src, tag int) message {
	key := mkKey(ctx, src, tag)
	var pend []PendingRecv
	p.box.mu.Lock()
	defer p.box.mu.Unlock()
	for {
		if q := p.box.q[key]; q != nil && q.head < len(q.msgs) {
			m := q.msgs[q.head]
			q.msgs[q.head] = message{}
			q.head++
			if q.head == len(q.msgs) {
				q.msgs = q.msgs[:0]
				q.head = 0
			}
			p.drained(1)
			return m
		}
		if p.w.dead.Load() {
			panic(runAbort{p.rank})
		}
		if pend == nil {
			p.pendScratch[0] = PendingRecv{Comm: int(ctx), Src: src, Tag: tag}
			pend = p.pendScratch[:]
		}
		p.setWait("Recv", pend)
		if s := p.w.ev; s != nil {
			// Event backend: relinquish the carrier slot until a message
			// is enqueued for this rank (or the run aborts); the loop
			// re-checks the bucket and the dead flag on resume.
			s.blockWait(p.procState)
			p.clearWait()
			continue
		}
		p.sleepLocked()
		p.clearWait()
	}
}

// sleepLocked parks the rank (goroutine backend) until a sender
// enqueues to its inbox or the run aborts. It must run under box.mu,
// after setWait. While parked the rank counts as asleep in World.idle,
// and the first sender to reach it uncounts it under the same lock, so
// a rank that has been sent a message never counts as blocked, whether
// or not it has been scheduled yet. "Every live rank asleep or
// finished" is then exact and stable: the rank whose sleep completes
// it declares the deadlock at once.
func (p *Proc) sleepLocked() {
	p.box.sleeping = true
	if p.w.quiescent(p.w.idle.Add(1)) {
		p.box.mu.Unlock()
		p.w.declareDeadlock()
		p.box.mu.Lock()
	}
	for p.box.sleeping && !p.w.dead.Load() {
		p.box.cond.Wait()
	}
	if p.box.sleeping {
		p.box.sleeping = false
		p.w.idle.Add(-1)
	}
}

// Request is a handle for a nonblocking operation. Complete it with
// Proc.Wait or Proc.Waitall; optionally recycle it afterwards with
// Proc.FreeRequests.
type Request struct {
	isRecv bool
	done   bool
	freed  bool
	ctx    uint32 // communicator context the receive was posted on
	src    int
	tag    int
	buf    buffer.Buf
	size   int
	// wseq/widx stamp the request with the last Waitall call that saw
	// it (the per-Proc waitSeq counter and the index in that call's
	// slice), which is how Waitall detects a duplicated pointer without
	// allocating a set.
	wseq int64
	widx int
}

// newRequest returns a zeroed request, recycling one returned via
// FreeRequests when available.
func (p *Proc) newRequest() *Request {
	if k := len(p.reqFree); k > 0 {
		r := p.reqFree[k-1]
		p.reqFree[k-1] = nil
		p.reqFree = p.reqFree[:k-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// FreeRequests returns completed request handles to this rank's free
// list for reuse by later Isend/Irecv calls, eliminating the
// per-request allocation in steady-state loops. Freeing is optional —
// handles that are never freed are collected by the GC like any other
// value.
//
// Every handle must already be complete (its Wait or Waitall has
// returned); freeing an incomplete or already-freed handle panics. Nil
// entries are skipped. After FreeRequests the handles must not be used
// again: Wait panics and Waitall errors on a freed handle, so a stale
// use fails deterministically instead of reading state recycled by a
// later nonblocking call.
func (p *Proc) FreeRequests(rs []*Request) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		if r.freed {
			panic(fmt.Sprintf("mpi: rank %d: FreeRequests: request freed twice", p.rank))
		}
		if !r.done {
			panic(fmt.Sprintf("mpi: rank %d: FreeRequests: request not complete", p.rank))
		}
		r.freed = true
		p.reqFree = append(p.reqFree, r)
	}
}

// Isend starts a nonblocking send. In this runtime sends are always
// buffered, so the returned request is already complete; it exists so
// algorithm code reads like its MPI counterpart.
func (p *Proc) Isend(dst, tag int, b buffer.Buf) *Request {
	p.Send(dst, tag, b)
	r := p.newRequest()
	r.done, r.size = true, b.Len()
	return r
}

// Irecv posts a nonblocking receive for (src, tag) on this handle's
// communicator into b. Matching and clock accounting happen at Wait or
// Waitall. Requests posted on different communicators of the same rank
// may be completed by one Waitall: each request remembers the
// communicator it was posted on.
func (p *Proc) Irecv(src, tag int, b buffer.Buf) *Request {
	p.checkPeer(src, "receive from")
	r := p.newRequest()
	r.isRecv, r.ctx, r.src, r.tag, r.buf = true, p.grp.ctx, src, tag, b
	return r
}

// Wait completes a single request and returns the transferred size.
// Waiting again on a completed request is idempotent; waiting on a
// request recycled via FreeRequests panics.
func (p *Proc) Wait(r *Request) int {
	if r.freed {
		panic(fmt.Sprintf("mpi: rank %d: Wait on freed request (use after FreeRequests)", p.rank))
	}
	if r.done {
		return r.size
	}
	msg := p.matchBlocking(r.ctx, r.src, r.tag)
	r.size = p.completeRecv(msg, r.buf)
	r.done = true
	return r.size
}

// reqQueue is one (comm, src, tag) bucket of Waitall's
// outstanding-receive index: requests in posting order with a
// consumed-prefix head, the mirror of the inbox's msgQueue. Queues are
// recycled on the Proc (rqFree) so repeated Waitall calls allocate
// nothing.
type reqQueue struct {
	reqs []*Request
	head int
}

// pendingMatch pairs a matched request with its message until the
// arrival-ordered completion pass.
type pendingMatch struct {
	req *Request
	msg message
}

// pendHeap orders matched pairs by (arrival, gsrc, seq) — seq is unique
// per inbox, so the order is total and deterministic. sort.Interface on
// the pointer keeps the sort allocation-free (sort.Slice allocates its
// closure and swapper on every call).
type pendHeap []pendingMatch

func (h *pendHeap) Len() int      { return len(*h) }
func (h *pendHeap) Swap(i, j int) { (*h)[i], (*h)[j] = (*h)[j], (*h)[i] }
func (h *pendHeap) Less(i, j int) bool {
	a, b := (*h)[i].msg, (*h)[j].msg
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	if a.gsrc != b.gsrc {
		return a.gsrc < b.gsrc
	}
	return a.seq < b.seq
}

// waitallTake matches as many queued messages as possible against the
// outstanding requests for one key, appending the pairs to p.pend. It
// must run under box.mu.
func (p *Proc) waitallTake(key matchKey) bool {
	rq := p.wanted[key]
	if rq == nil || rq.head == len(rq.reqs) {
		return false
	}
	mq := p.box.q[key]
	if mq == nil {
		return false
	}
	n := len(rq.reqs) - rq.head
	if avail := len(mq.msgs) - mq.head; avail < n {
		n = avail
	}
	if n == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		p.pend = append(p.pend, pendingMatch{req: rq.reqs[rq.head+i], msg: mq.msgs[mq.head+i]})
		mq.msgs[mq.head+i] = message{}
	}
	rq.head += n
	mq.head += n
	if mq.head == len(mq.msgs) {
		mq.msgs = mq.msgs[:0]
		mq.head = 0
	}
	p.wOutstanding -= n
	p.drained(n)
	return true
}

// Waitall completes all requests. Pending receives are matched first and
// then retired in message-arrival order, which models a rank draining its
// link as data shows up and keeps virtual time independent of the posting
// order.
//
// A nil, freed, or duplicated request in the slice is a caller bug;
// Waitall reports it as an error naming the offending index (both
// indices, for a duplicate), before any request is touched, so the
// failure is deterministic rather than a panic inside a rank goroutine.
// Duplicates matter because the same receive would otherwise consume
// two messages and silently corrupt one destination buffer.
//
// Matching is opportunistic: each time the rank wakes it drains every
// outstanding request whose message has arrived, so a flood of arrivals
// (spread-out posts P-1 receives) costs a handful of wake-ups rather
// than one per message.
func (p *Proc) Waitall(rs []*Request) error {
	p.waitSeq++
	for i, r := range rs {
		if r == nil {
			return fmt.Errorf("mpi: rank %d: Waitall: nil request at index %d of %d", p.rank, i, len(rs))
		}
		if r.freed {
			return fmt.Errorf("mpi: rank %d: Waitall: freed request at index %d of %d (use after FreeRequests)", p.rank, i, len(rs))
		}
		if r.wseq == p.waitSeq {
			return fmt.Errorf("mpi: rank %d: Waitall: duplicate request at indices %d and %d", p.rank, r.widx, i)
		}
		r.wseq, r.widx = p.waitSeq, i
	}
	// Index outstanding receives by (comm, src, tag); same-key requests
	// complete in posting order against the bucket's FIFO. The index
	// and its queues live on the Proc and are reused across calls.
	p.wOutstanding = 0
	for _, r := range rs {
		if r.done || !r.isRecv {
			r.done = true
			continue
		}
		key := mkKey(r.ctx, r.src, r.tag)
		rq := p.wanted[key]
		if rq == nil {
			if k := len(p.rqFree); k > 0 {
				rq = p.rqFree[k-1]
				p.rqFree = p.rqFree[:k-1]
			} else {
				rq = &reqQueue{}
			}
			p.wanted[key] = rq
			p.wkeys = append(p.wkeys, key)
		}
		rq.reqs = append(rq.reqs, r)
		p.wOutstanding++
	}
	p.box.mu.Lock()
	// First pass: whatever already arrived before this Waitall.
	for _, key := range p.wkeys {
		p.waitallTake(key)
	}
	for p.wOutstanding > 0 {
		// Process only arrivals logged since the last consumed
		// position, so total matching work is linear in messages.
		progress := false
		for p.box.arrPos < len(p.box.arr) {
			key := p.box.arr[p.box.arrPos]
			p.box.arrPos++
			if p.waitallTake(key) {
				progress = true
			}
		}
		if p.box.arrPos == len(p.box.arr) && p.box.arrPos > 0 {
			p.box.arr = p.box.arr[:0]
			p.box.arrPos = 0
		}
		if p.wOutstanding == 0 || progress {
			continue
		}
		if p.w.dead.Load() {
			p.box.mu.Unlock()
			panic(runAbort{p.rank})
		}
		p.setWait("Waitall", p.pendingFromWanted())
		if s := p.w.ev; s != nil {
			s.blockWait(p.procState)
			p.clearWait()
			continue
		}
		p.sleepLocked()
		p.clearWait()
	}
	p.box.mu.Unlock()
	// Release this call's index queues before the completion pass.
	for _, key := range p.wkeys {
		rq := p.wanted[key]
		delete(p.wanted, key)
		for i := range rq.reqs {
			rq.reqs[i] = nil
		}
		rq.reqs = rq.reqs[:0]
		rq.head = 0
		p.rqFree = append(p.rqFree, rq)
	}
	p.wkeys = p.wkeys[:0]
	sort.Sort(&p.pend)
	for i := range p.pend {
		// Clear the entry before landing it: a landing that unwinds has
		// returned its own payload, and the end-of-run sweep returns
		// those of the entries after it.
		pd := p.pend[i]
		p.pend[i] = pendingMatch{}
		pd.req.size = p.completeRecv(pd.msg, pd.req.buf)
		pd.req.done = true
	}
	p.pend = p.pend[:0]
	return nil
}

// SendRecv sends sbuf to dst and receives into rbuf from src, allowing
// the two transfers to overlap (full duplex). It returns the received
// size.
func (p *Proc) SendRecv(dst, stag int, sbuf buffer.Buf, src, rtag int, rbuf buffer.Buf) int {
	p.Send(dst, stag, sbuf)
	return p.Recv(src, rtag, rbuf)
}

// sendRecvColl is the collective-internal SendRecv: both sides are
// charged overheads scaled by the model's collective factor.
func (p *Proc) sendRecvColl(dst, stag int, sbuf buffer.Buf, src, rtag int, rbuf buffer.Buf) int {
	f := p.w.collFactor
	p.sendf(dst, stag, sbuf, f)
	msg := p.matchBlocking(p.grp.ctx, src, rtag)
	return p.completeRecvf(msg, rbuf, f)
}

// sendColl / recvColl are the collective-internal one-way transfers.
func (p *Proc) sendColl(dst, tag int, b buffer.Buf) {
	p.sendf(dst, tag, b, p.w.collFactor)
}

func (p *Proc) recvColl(src, tag int, b buffer.Buf) int {
	p.checkPeer(src, "receive from")
	msg := p.matchBlocking(p.grp.ctx, src, tag)
	return p.completeRecvf(msg, b, p.w.collFactor)
}
