package coll

import (
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// SLOAV is a re-implementation of the prior log-time non-uniform
// all-to-all (Xu et al., SLOAVx, 2013) that the paper improves upon. It
// serves as the ablation baseline for the four inefficiencies Section
// 6.1 identifies:
//
//  1. Metadata coupled with data: each step first exchanges the size of
//     a combined buffer, then the combined buffer itself (block-size
//     array packed together with the blocks), paying an extra pack on
//     the sender and unpack on the receiver.
//  2. Two-layer temporary buffer with a pointer array: every
//     intermediate block costs pointer bookkeeping and a resize copy.
//  3. A final rotation phase (SLOAV only removes the initial rotation).
//  4. A final scan that copies all blocks from the temporaries into the
//     receive buffer.
//
// The communication structure (number of steps, partners, bytes moved)
// matches two-phase Bruck; the differences are the extra local passes
// and the coupled message layout, so benchmarks isolate exactly the
// overheads the paper claims to remove.
func SLOAV(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()

	N := p.AllreduceMaxInt(maxInts(scounts))
	if err := selfCopy(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	if P == 1 || N == 0 {
		return nil
	}

	w := p.AllocBuf(P * N)
	defer p.FreeBuf(w)
	idx := make([]int, P)
	for s, b := 0, rotatedStart(rank, P); s < P; s, b = s+1, rotatedNext(b, P) {
		idx[s] = b
	}
	p.Charge(float64(P))

	size := make([]int, P)
	for s := 0; s < P; s++ {
		size[s] = scounts[idx[s]]
	}
	status := make([]bool, P)

	half := (P + 1) / 2
	combined := p.AllocBuf(half * N) // packed blocks
	rcombined := p.AllocBuf(half * N)
	// SLOAV couples the block-size array with the data in one combined
	// buffer. Because block sizes drive control flow they must travel as
	// real bytes even in phantom worlds, so this implementation carries
	// them in the header message instead; the split moves exactly the
	// same total bytes in the same two messages per step, and the
	// coupled pack/unpack cost is still charged below.
	hdr := p.AllocReal(4 + 4*half)
	rhdr := p.AllocReal(4 + 4*half)
	defer p.FreeBuf(combined, rcombined, hdr, rhdr)

	// finalAt[s] remembers where slot s's last-hop block landed in W so
	// the final scan can fetch it.
	finalSize := make([]int, P)
	finalSize[rank] = -1 // self block already placed

	done := p.Phase(PhaseComm)
	relScratch, slotScratch := walkScratch(P, 2)
	for it := newRadixWalk(P, rank, 2, relScratch, slotScratch); it.next(); {
		p.SetStep(it.si)
		slot, dst, src := it.st.slot, it.st.dst, it.st.src
		htag, dtag := tagSloav+2*it.si, tagSloav+2*it.si+1

		// Build the block-size array and pack the data into the combined
		// buffer; inefficiency 1 (coupling metadata with data) costs an
		// extra pack of the size array here.
		total := 0
		for j, s := range slot {
			hdr.PutUint32(4+4*j, uint32(size[s]))
			total += size[s]
		}
		p.ChargeMemcpy(4 * len(slot)) // pack size array into combined buffer
		off := 0
		for _, s := range slot {
			var blk buffer.Buf
			if status[s] {
				blk = w.Slice(s*N, size[s])
			} else {
				blk = send.Slice(sdispls[idx[s]], size[s])
			}
			p.Memcpy(combined.Slice(off, size[s]), blk)
			off += size[s]
		}

		// Exchange the combined-buffer length, then the combined buffer
		// (size array + blocks: 4*len(slot)+off bytes on the wire).
		hdr.PutUint32(0, uint32(off))
		p.SendRecv(dst, htag, hdr.Slice(0, 4+4*len(slot)), src, htag, rhdr.Slice(0, 4+4*len(slot)))
		rtotal := int(rhdr.Uint32(0))
		p.Send(dst, dtag, combined.Slice(0, off))
		p.Recv(src, dtag, rcombined.Slice(0, rtotal))

		// Unpack: split the metadata back out (inefficiency 1: the extra
		// unpack), then scatter blocks into the per-block temporaries.
		p.ChargeMemcpy(4 * len(slot))
		roff := 0
		for j, s := range slot {
			sz := int(rhdr.Uint32(4 + 4*j))
			// Inefficiency 2: pointer-array temp management — every
			// block placement pays bookkeeping, and growing a cell pays
			// a resize copy of the old contents.
			p.Charge(10) // pointer bookkeeping per block
			if status[s] && sz > size[s] {
				p.ChargeMemcpy(size[s]) // resize copy
			}
			p.Memcpy(w.Slice(s*N, sz), rcombined.Slice(roff, sz))
			roff += sz
			size[s] = sz
			status[s] = true
			if j < it.st.final { // last hop: remember for the final scan
				finalSize[s] = sz
			}
		}
	}
	p.ClearStep()
	done()

	// Inefficiency 3: the final rotation pass over all received data.
	done = p.Phase(PhaseFinalRotation)
	for s := 0; s < P; s++ {
		if finalSize[s] > 0 {
			p.ChargeMemcpy(finalSize[s])
		}
	}
	done()

	// Inefficiency 4: the final scan copying every block from the
	// temporaries into the receive buffer.
	done = p.Phase(PhaseScan)
	for s := 0; s < P; s++ {
		if finalSize[s] < 0 {
			continue // self block
		}
		if finalSize[s] != rcounts[s] {
			done()
			return fmt.Errorf("coll: sloav: block for slot %d arrived with %d bytes, rcounts says %d", s, finalSize[s], rcounts[s])
		}
		p.Memcpy(recv.Slice(rdispls[s], rcounts[s]), w.Slice(s*N, finalSize[s]))
	}
	done()
	return nil
}
