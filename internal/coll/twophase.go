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
// (lines 2-5 of Algorithm 1). The immediate path builds one per call; a
// persistent handle pins one and runs it on its first Start.
type twoPhaseState struct {
	r, n int // radix and global maximum block size N
	// idx is the rotation index: slot s starts as send block idx[s].
	idx []int
	// size[s] is the byte count of the block occupying slot s; inW[s]
	// records that the slot has been through an exchange, so its block
	// lives in W rather than the send buffer.
	size []int
	inW  []bool
	rel  []int // the radix walk's block-list scratch
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
	rank := p.Rank()
	maxB := maxDigitBlocks(P, r)
	st.r, st.n = r, n
	st.w = p.AllocBuf(P * n)
	ints := make([]int, 2*P+maxB)
	st.idx, st.size, st.rel = ints[:P], ints[P:2*P], ints[2*P:2*P]
	for s := range st.idx {
		st.idx[s] = ((2*rank-s)%P + P) % P
	}
	p.Charge(float64(P))
	st.inW = make([]bool, P)
	st.reset(scounts)
	// Metadata travels as real bytes even in phantom worlds: the sizes
	// drive control flow.
	st.meta = p.AllocReal(4 * maxB)
	st.rmeta = p.AllocReal(4 * maxB)
}

// reset readies the state for an exchange of scounts: every slot holds
// its initial block, still in the send buffer.
func (st *twoPhaseState) reset(scounts []int) {
	for s := range st.size {
		st.size[s] = scounts[st.idx[s]]
		st.inW[s] = false
	}
}

// free returns the state's buffers to the rank's scratch arena.
func (st *twoPhaseState) free(p *mpi.Proc) {
	p.FreeBuf(st.w, st.meta, st.rmeta)
}

// twoPhaseRecord is the data-dependent state of one exchange, captured
// so a persistent handle can replay it without metadata. Entries follow
// the radix walk's blocks in order: out and fromW describe each
// outgoing block (its size, and whether it is read from W rather than
// the send buffer), in each incoming block's size; outTotal and
// inTotal hold each sub-step's outgoing and incoming packed lengths.
type twoPhaseRecord struct {
	out               []int32
	fromW             []bool
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
	P := p.Size()
	rank := p.Rank()
	N := st.n
	// Payloads are real when the blocks packed into them are: those
	// come from send and from W.
	real := send.Real() && st.w.Real()
	for it := newRadixWalk(P, rank, st.r, st.rel); it.next(); {
		sub := &it.st
		p.SetStep(it.si)

		// Phase one: metadata — the sizes of the blocks we are sending
		// (lines 11-16).
		out := 0
		for j, i := range sub.rel {
			s := (i + rank) % P
			st.meta.PutUint32(4*j, uint32(st.size[s]))
			out += st.size[s]
		}
		mtag := tagRadixMeta + it.si
		p.SendRecv(sub.dst, mtag, st.meta.Slice(0, 4*len(sub.rel)), sub.src, mtag, st.rmeta.Slice(0, 4*len(sub.rel)))

		// Phase two: pack and send the data (lines 17-24). Blocks come
		// from W if they were received in an earlier step, else from the
		// send buffer through the rotation index.
		pl := p.PayloadBuf(out, real)
		off := 0
		for _, i := range sub.rel {
			s := (i + rank) % P
			sz := st.size[s]
			var blk buffer.Buf
			if st.inW[s] {
				blk = st.w.Slice(s*N, sz)
			} else {
				blk = send.Slice(sdispls[st.idx[s]], sz)
			}
			if rec != nil {
				rec.out = append(rec.out, int32(sz))
				rec.fromW = append(rec.fromW, st.inW[s])
			}
			p.Memcpy(pl.Slice(off, sz), blk)
			off += sz
		}
		dtag := tagRadixData + it.si
		p.SendPayload(sub.dst, dtag, pl)

		// Receive the incoming packed blocks; the metadata told us the
		// total.
		total := 0
		for j := range sub.rel {
			total += int(st.rmeta.Uint32(4 * j))
		}
		in := p.RecvPayload(sub.src, dtag, total)
		if rec != nil {
			rec.outTotal = append(rec.outTotal, out)
			rec.inTotal = append(rec.inTotal, total)
		}

		// Unpack (lines 25-33).
		roff := 0
		for j, i := range sub.rel {
			s := (i + rank) % P
			sz := int(st.rmeta.Uint32(4 * j))
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
			if rec != nil {
				rec.in = append(rec.in, int32(sz))
			}
			roff += sz
			st.size[s] = sz
			st.inW[s] = true
		}
		p.FreePayload(in)
	}
	return nil
}
