package coll

import (
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// TwoPhaseBruck is the paper's main contribution (Section 3.2,
// Algorithm 1): a log-time non-uniform all-to-all built on the
// zero-rotation Bruck skeleton. Each of the ceil(log2 P) steps performs
// a coupled two-phase exchange — metadata (the sizes of the blocks about
// to move) followed by the packed data — and a monolithic working buffer
// W of P x N bytes (N = global maximum block size, found by Allreduce)
// holds every intermediate block that will be forwarded at a later step.
// Blocks making their final hop are placed directly at their destination
// offset in the receive buffer, eliminating the rotation and scan phases
// that SLOAV pays. It is TwoPhaseBruckRadix(2).
func TwoPhaseBruck(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	return twoPhase(p, 2, send, scounts, sdispls, recv, rcounts, rdispls)
}

// TwoPhaseBruckRadix returns a non-uniform all-to-all implementation
// using radix-r two-phase Bruck: the paper's Algorithm 1 generalized to
// r-ary digits, with one metadata+data exchange per (position, digit)
// sub-step. r must be at least 2.
func TwoPhaseBruckRadix(r int) Alltoallv {
	return func(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
		recv buffer.Buf, rcounts, rdispls []int) error {
		if r < 2 {
			return errRadix(r)
		}
		return twoPhase(p, r, send, scounts, sdispls, recv, rcounts, rdispls)
	}
}

func twoPhase(p *mpi.Proc, r int, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	// Line 1 of Algorithm 1: global maximum block size.
	N := p.AllreduceMaxInt(maxInts(scounts))
	return twoPhaseExchange(p, r, N, send, scounts, sdispls, recv, rcounts, rdispls)
}

// twoPhaseExchange is radix-r two-phase Bruck after validation and the
// max-block Allreduce: callers that already know the global maximum
// (the auto-selector's fused reduction) enter here so the reduction is
// never paid twice. N must be the true global maximum of scounts across
// ranks.
func twoPhaseExchange(p *mpi.Proc, r, N int, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	if err := selfCopy(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	if p.Size() == 1 || N == 0 {
		return nil
	}
	var st twoPhaseState
	st.init(p, r, N, scounts)
	defer st.free(p)
	done := p.Phase(PhaseComm)
	defer done()
	defer p.ClearStep()
	return st.exchange(p, send, sdispls, recv, rcounts, rdispls, nil)
}

// twoPhaseState is the working state of one radix-r two-phase exchange
// (lines 2-5 of Algorithm 1). The immediate path builds one per call
// from the rank's resident scratch; a persistent handle pins one and
// runs it on its first Start.
type twoPhaseState struct {
	r, n int // radix and global maximum block size N
	// rot is the rotation index's origin: slot s starts out holding
	// send block (rot − s) mod P, rot = 2·rank mod P.
	rot int
	// blk[s] is the byte count of the block occupying slot s while it
	// is still in the send buffer, and its complement ^count once it
	// has been through an exchange and lives in W at s·N. rel and slot
	// are the radix walk's scratch. All three share ints, taken from
	// the rank's int scratch.
	blk, rel, slot []int
	ints           []int
	// w is the monolithic working buffer, sized for the worst case so
	// no intermediate block can overflow; meta and rmeta hold one
	// sub-step's block sizes. The packed blocks themselves travel in
	// transport payloads, packed and unpacked in place.
	w, meta, rmeta buffer.Buf
}

// init sizes the state for a radix-r exchange of this rank's scounts
// with global maximum block n, and charges the O(P) rotation index.
func (st *twoPhaseState) init(p *mpi.Proc, r, n int, scounts []int) {
	P := p.Size()
	maxB := maxDigitBlocks(P, r)
	st.r, st.n, st.rot = r, n, rotatedStart(p.Rank(), P)
	st.w = p.AllocBuf(P * n)
	st.ints = p.AllocInts(P + 2*maxB)
	st.blk = st.ints[:P]
	st.rel, st.slot = st.ints[P:P:P+maxB], st.ints[P+maxB:P+maxB]
	st.reset(scounts)
	p.Charge(float64(P))
	// Metadata travels as real bytes even in phantom worlds: the sizes
	// drive control flow.
	st.meta = p.AllocReal(4 * maxB)
	st.rmeta = p.AllocReal(4 * maxB)
}

// reset readies the state for an exchange of scounts: every slot holds
// its initial block, still in the send buffer.
func (st *twoPhaseState) reset(scounts []int) {
	P := len(st.blk)
	for s, b := 0, st.rot; s < P; s, b = s+1, rotatedNext(b, P) {
		st.blk[s] = scounts[b]
	}
}

// sendBlock returns the send-buffer index of the block slot s started
// with.
func (st *twoPhaseState) sendBlock(s int) int {
	if b := st.rot - s; b >= 0 {
		return b
	}
	return st.rot - s + len(st.blk)
}

// free returns the state's scratch to the rank.
func (st *twoPhaseState) free(p *mpi.Proc) {
	p.FreeBuf(st.w, st.meta, st.rmeta)
	p.FreeInts(st.ints)
}

// twoPhaseRecord is the data-dependent state of one exchange, captured
// so a persistent handle can replay it without metadata. Entries follow
// the radix walk's blocks in order: out and from describe each outgoing
// block (its size, and its send-buffer offset, or -1 when it is read
// from W), in each incoming block's size; outTotal and inTotal hold
// each sub-step's outgoing and incoming packed lengths.
type twoPhaseRecord struct {
	out               []int32
	from              []int
	in                []int32
	outTotal, inTotal []int
}

// exchange runs the step loop of Algorithm 1 (lines 6-33) over the
// radix walk: at each sub-step a metadata exchange of the outgoing
// block sizes, then the packed data, packed straight into the payload
// the transport sends and unpacked from the one it receives. Blocks on
// their final hop land at their destination offset in recv; the rest
// go to W to be forwarded. A non-nil rec captures the exchange for
// replay.
func (st *twoPhaseState) exchange(p *mpi.Proc, send buffer.Buf, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int, rec *twoPhaseRecord) error {
	N := st.n
	// Payloads are real when the blocks packed into them are: those
	// come from send and from W.
	real := send.Real() && st.w.Real()
	for it := newRadixWalk(p.Size(), p.Rank(), st.r, st.rel, st.slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)

		// Phase one: metadata — the sizes of the blocks we are sending
		// (lines 11-16).
		out := 0
		for j, s := range sub.slot {
			sz := st.blk[s]
			if sz < 0 {
				sz = ^sz
			}
			st.meta.PutUint32(4*j, uint32(sz))
			out += sz
		}
		mtag := tagRadixMeta + it.si
		nm := 4 * len(sub.slot)
		p.SendRecv(sub.dst, mtag, st.meta.Slice(0, nm), sub.src, mtag, st.rmeta.Slice(0, nm))

		// Phase two: pack and send the data (lines 17-24). Blocks come
		// from W if they were received in an earlier step, else from the
		// send buffer through the rotation index.
		pl := p.PayloadBuf(out, real)
		off := 0
		for _, s := range sub.slot {
			sz, from := st.blk[s], -1
			var blk buffer.Buf
			if sz < 0 {
				sz = ^sz
				blk = st.w.Slice(s*N, sz)
			} else {
				from = sdispls[st.sendBlock(s)]
				blk = send.Slice(from, sz)
			}
			if rec != nil {
				rec.out = append(rec.out, int32(sz))
				rec.from = append(rec.from, from)
			}
			p.Memcpy(pl.Slice(off, sz), blk)
			off += sz
		}
		dtag := tagRadixData + it.si
		p.SendPayload(sub.dst, dtag, pl)

		// Receive the incoming packed blocks; the metadata told us their
		// sizes, which replace those of the blocks just sent.
		total := 0
		for j, s := range sub.slot {
			sz := int(st.rmeta.Uint32(4 * j))
			st.blk[s] = ^sz
			total += sz
			if rec != nil {
				rec.in = append(rec.in, int32(sz))
			}
		}
		in := p.RecvPayload(sub.src, dtag, total)
		if rec != nil {
			rec.outTotal = append(rec.outTotal, out)
			rec.inTotal = append(rec.inTotal, total)
		}

		// Unpack (lines 25-33).
		roff := 0
		for j, s := range sub.slot {
			sz := ^st.blk[s]
			if j < sub.final {
				if sz != rcounts[s] {
					p.FreePayload(in)
					return fmt.Errorf("coll: %s: block for slot %d arrived with %d bytes, rcounts says %d",
						RadixName(st.r), s, sz, rcounts[s])
				}
				p.Memcpy(recv.Slice(rdispls[s], sz), in.Slice(roff, sz))
			} else {
				p.Memcpy(st.w.Slice(s*N, sz), in.Slice(roff, sz))
			}
			roff += sz
		}
		p.FreePayload(in)
	}
	return nil
}
