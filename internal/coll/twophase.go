package coll

import (
	"fmt"
	"math"

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
	st.initV(p, r, N, scounts)
	defer st.free(p)
	done := p.Phase(PhaseComm)
	defer done()
	defer p.ClearStep()
	return st.exchange(p, send, sdispls, recv, rcounts, rdispls)
}

// sizeSource says where a sub-step's incoming block sizes come from,
// the one thing in which the Bruck step loops differ.
type sizeSource uint8

const (
	sizesExchanged sizeSource = iota // a metadata message per sub-step (Algorithm 1)
	sizesRecorded                    // the record of an earlier exchange of the same layout
	sizesUniform                     // n for every block
)

// twoPhaseState is the working state of one radix-r Bruck exchange
// (lines 2-5 of Algorithm 1) and the one packed radix step loop
// (exchange) that runs it. Two-phase Bruck exchanges the block sizes;
// a persistent handle exchanges them on its first Start and replays
// them from its record afterwards; zero-rotation and modified Bruck
// move uniform blocks through recv. The immediate paths build a state
// per call from the rank's resident scratch; a persistent handle pins
// one.
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
	// w is the working buffer W: a P×N buffer sized for the worst case
	// when sizes are exchanged, recv itself for uniform blocks, where a
	// block on its final hop is already home. meta and rmeta hold one
	// sub-step's exchanged block sizes. The packed blocks themselves
	// travel in transport payloads, packed and unpacked in place.
	w, meta, rmeta buffer.Buf
	sizes          sizeSource
	// rec holds the incoming block sizes in walk order: an exchange
	// appends to it when non-nil, and a recorded one reads from it.
	rec []int32
	// dtag is the data messages' tag band.
	dtag int
}

// init readies the state for a radix-r exchange of uniform n-byte
// blocks through w, sent under tag band dtag, taking the rotation index
// and the walk's scratch from the rank's int scratch.
func (st *twoPhaseState) init(p *mpi.Proc, r, n int, w buffer.Buf, dtag int) {
	P := p.Size()
	maxB := maxDigitBlocks(P, r)
	*st = twoPhaseState{r: r, n: n, rot: rotatedStart(p.Rank(), P), w: w, sizes: sizesUniform, dtag: dtag}
	st.ints = p.AllocInts(P + 2*maxB)
	st.blk = st.ints[:P]
	st.rel, st.slot = st.ints[P:P:P+maxB], st.ints[P+maxB:P+maxB]
}

// initV readies the state for a two-phase exchange of this rank's
// scounts with global maximum block n: W and the metadata buffers come
// from the rank's arena, and the O(P) rotation index is charged.
func (st *twoPhaseState) initV(p *mpi.Proc, r, n int, scounts []int) {
	P := p.Size()
	st.init(p, r, n, p.AllocBuf(P*n), tagRadixData)
	st.sizes = sizesExchanged
	st.reset(scounts)
	p.Charge(float64(P))
	// Metadata travels as real bytes even in phantom worlds: the sizes
	// drive control flow.
	st.meta = p.AllocReal(4 * cap(st.rel))
	st.rmeta = p.AllocReal(4 * cap(st.rel))
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

// blkBytes returns the byte count a blk entry records, wherever the
// block is.
func blkBytes(b int) int {
	if b < 0 {
		return ^b
	}
	return b
}

// free returns the state's scratch to the rank. A uniform state's W is
// its caller's recv, which stays with the caller.
func (st *twoPhaseState) free(p *mpi.Proc) {
	if st.sizes != sizesUniform {
		p.FreeBuf(st.w, st.meta, st.rmeta)
	}
	p.FreeInts(st.ints)
}

// exchange runs the step loop of Algorithm 1 (lines 6-33) over the
// radix walk: at each sub-step the outgoing block sizes (sent as
// metadata when the sizes are exchanged), then the packed data, packed
// straight into the payload the transport sends and unpacked from the
// one it receives. Blocks on their final hop land at their destination
// offset in recv; the rest go to W to be forwarded. Where the incoming
// sizes come from is decided once per sub-step.
func (st *twoPhaseState) exchange(p *mpi.Proc, send buffer.Buf, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	N := st.n
	// Payloads are real when the blocks packed into them are: those
	// come from send and from W.
	real := send.Real() && st.w.Real()
	ri := 0 // rec's index of the sub-step's first block
	for it := newRadixWalk(p.Size(), p.Rank(), st.r, st.rel, st.slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)

		// Phase one: the sizes of the blocks we are sending, and when
		// the peer cannot know them, the metadata carrying them (lines
		// 11-16).
		out := 0
		if st.sizes == sizesExchanged {
			for j, s := range sub.slot {
				sz := blkBytes(st.blk[s])
				st.meta.PutUint32(4*j, uint32(sz))
				out += sz
			}
			mtag := tagRadixMeta + it.si
			nm := 4 * len(sub.slot)
			p.SendRecv(sub.dst, mtag, st.meta.Slice(0, nm), sub.src, mtag, st.rmeta.Slice(0, nm))
		} else {
			for _, s := range sub.slot {
				out += blkBytes(st.blk[s])
			}
		}

		// Phase two: pack and send the data (lines 17-24). Blocks come
		// from W if they were received in an earlier step, else from the
		// send buffer through the rotation index.
		pl := p.PayloadBuf(out, real)
		off := 0
		for _, s := range sub.slot {
			sz := st.blk[s]
			var blk buffer.Buf
			if sz < 0 {
				sz = ^sz
				blk = st.w.Slice(s*N, sz)
			} else {
				blk = send.Slice(sdispls[st.sendBlock(s)], sz)
			}
			p.Memcpy(pl.Slice(off, sz), blk)
			off += sz
		}
		dtag := st.dtag + it.si
		p.SendPayload(sub.dst, dtag, pl)

		// Receive the incoming packed blocks, whose sizes replace those
		// of the blocks just sent.
		total := 0
		switch st.sizes {
		case sizesExchanged:
			for j, s := range sub.slot {
				sz := int(st.rmeta.Uint32(4 * j))
				st.blk[s] = ^sz
				total += sz
				if st.rec != nil {
					st.rec = append(st.rec, int32(sz))
				}
			}
		case sizesRecorded:
			for j, s := range sub.slot {
				sz := int(st.rec[ri+j])
				st.blk[s] = ^sz
				total += sz
			}
			ri += len(sub.slot)
		case sizesUniform:
			for _, s := range sub.slot {
				st.blk[s] = ^N
			}
			total = len(sub.slot) * N
		}
		in, err := recvStep(p, sub.src, dtag, total)
		if err != nil {
			return err
		}

		// Unpack (lines 25-33). A uniform W is recv, so there every
		// block goes to W.
		final := sub.final
		if st.sizes == sizesUniform {
			final = 0
		}
		roff := 0
		for j, s := range sub.slot {
			sz := ^st.blk[s]
			if j < final {
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

// recvStep receives a step's packed payload, which must hold exactly n
// bytes. Another length means the peer packed other block sizes (n
// differs across ranks); the payload is freed and the mismatch
// returned as an error, where a plain receive of n bytes would panic
// on a longer one or unpack a shorter one past its end.
func recvStep(p *mpi.Proc, src, tag, n int) (buffer.Buf, error) {
	in := p.RecvPayload(src, tag, math.MaxInt)
	if in.Len() != n {
		p.FreePayload(in)
		return buffer.Buf{}, fmt.Errorf("coll: rank %d: step message from rank %d holds %d bytes, want %d: block size differs across ranks",
			p.Rank(), src, in.Len(), n)
	}
	return in, nil
}
