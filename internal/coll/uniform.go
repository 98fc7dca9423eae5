package coll

import (
	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Uniform Bruck variants with explicit memory management (memcpy-based
// packing). The derived-datatype variants live in uniform_dt.go.

// BasicBruck is the classic three-phase Bruck algorithm: an initial
// rotation, ceil(log2 P) store-and-forward exchange steps, and a final
// inverse rotation (Figure 1a of the paper).
func BasicBruck(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	if P == 1 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	rank := p.Rank()

	// Phase 1: rotate so work[i] = send[(rank+i) mod P]. Two contiguous
	// chunk copies.
	done := p.Phase(PhaseInitRotation)
	work := p.AllocBuf(P * n)
	defer p.FreeBuf(work)
	head := (P - rank) * n
	p.Memcpy(work.Slice(0, head), send.Slice(rank*n, head))
	if rank > 0 {
		p.Memcpy(work.Slice(head, rank*n), send.Slice(0, rank*n))
	}
	done()

	// Phase 2: log-time exchange over the binary walk. Blocks whose k-th
	// bit is set travel distance 2^k; received blocks land in the same
	// slots and may be forwarded at later steps. The forward rotation
	// makes data flow towards higher ranks, so this sends to the walk's
	// src and receives from its dst. Blocks are packed straight into the
	// payload sent and unpacked from the one received.
	done = p.Phase(PhaseComm)
	rel, slot := walkScratch(P, 2)
	for it := newRadixWalk(P, rank, 2, rel, slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)
		total := len(sub.rel) * n
		pl := p.PayloadBuf(total, work.Real())
		for j, s := range sub.rel {
			p.Memcpy(pl.Slice(j*n, n), work.Slice(s*n, n))
		}
		tag := tagBruck + it.si
		p.SendPayload(sub.src, tag, pl)
		in, err := recvStep(p, sub.dst, tag, total)
		if err != nil {
			p.ClearStep()
			done()
			return err
		}
		for j, s := range sub.rel {
			p.Memcpy(work.Slice(s*n, n), in.Slice(j*n, n))
		}
		p.FreePayload(in)
	}
	p.ClearStep()
	done()

	// Phase 3: inverse rotation recv[j] = work[(rank-j) mod P].
	done = p.Phase(PhaseFinalRotation)
	for j := 0; j < P; j++ {
		s := (rank - j + P) % P
		p.Memcpy(recv.Slice(j*n, n), work.Slice(s*n, n))
	}
	done()
	return nil
}

// ModifiedBruck eliminates BasicBruck's final rotation by rotating
// differently up front and reversing the communication direction
// (Figure 1b of the paper, after Träff et al.).
func ModifiedBruck(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	if P == 1 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	rank := p.Rank()

	// Phase 1: rotate so recv[i] = send[(2*rank - i) mod P]. Reverse
	// order forces per-block copies.
	done := p.Phase(PhaseInitRotation)
	for i, src := 0, rotatedStart(rank, P); i < P; i, src = i+1, rotatedNext(src, P) {
		p.Memcpy(recv.Slice(i*n, n), send.Slice(src*n, n))
	}
	done()

	// Phase 2: the binary walk sends to rank-2^k and receives from
	// rank+2^k, moving the blocks in the walk's rotated slots. No final
	// rotation: recv ends correct.
	done = p.Phase(PhaseComm)
	rel, slot := walkScratch(P, 2)
	for it := newRadixWalk(P, rank, 2, rel, slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)
		total := len(sub.slot) * n
		pl := p.PayloadBuf(total, recv.Real())
		for j, s := range sub.slot {
			p.Memcpy(pl.Slice(j*n, n), recv.Slice(s*n, n))
		}
		tag := tagBruck + it.si
		p.SendPayload(sub.dst, tag, pl)
		in, err := recvStep(p, sub.src, tag, total)
		if err != nil {
			p.ClearStep()
			done()
			return err
		}
		for j, s := range sub.slot {
			p.Memcpy(recv.Slice(s*n, n), in.Slice(j*n, n))
		}
		p.FreePayload(in)
	}
	p.ClearStep()
	done()
	return nil
}

// ZeroRotationBruck is the paper's uniform contribution: it synthesizes
// the modified Bruck (no final rotation) with SLOAV's rotation index
// array (no initial rotation). Blocks are fetched from the send buffer
// through the index array on their first transmission and from the
// receive buffer afterwards, tracked by a status array. It is the
// skeleton both non-uniform algorithms are built on, and the r=2 case
// of ZeroRotationBruckRadix.
func ZeroRotationBruck(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	return zeroRotation(p, 2, send, n, recv)
}

// PairwiseAlltoall exchanges directly with every peer in P-1 rounds
// (partner by XOR for power-of-two P, by ring offset otherwise). It is
// the linear-time baseline vendors use for large blocks.
func PairwiseAlltoall(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	p.Memcpy(recv.Slice(rank*n, n), send.Slice(rank*n, n))
	pow2 := P&(P-1) == 0
	done := p.Phase(PhaseComm)
	for i := 1; i < P; i++ {
		p.SetStep(i - 1)
		var dst, src int
		if pow2 {
			dst = rank ^ i
			src = dst
		} else {
			dst = (rank + i) % P
			src = (rank - i + P) % P
		}
		p.SendRecv(dst, tagPairwise, send.Slice(dst*n, n), src, tagPairwise, recv.Slice(src*n, n))
	}
	p.ClearStep()
	done()
	return nil
}

// SpreadOutUniform posts all P-1 nonblocking sends and receives at once
// and waits, the uniform counterpart of the non-uniform spread-out
// baseline.
func SpreadOutUniform(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	p.Memcpy(recv.Slice(rank*n, n), send.Slice(rank*n, n))
	done := p.Phase(PhaseComm)
	reqs := make([]*mpi.Request, 0, 2*(P-1))
	for i := 1; i < P; i++ {
		src := (rank - i + P) % P
		reqs = append(reqs, p.Irecv(src, tagSpreadOut, recv.Slice(src*n, n)))
	}
	for i := 1; i < P; i++ {
		dst := (rank + i) % P
		reqs = append(reqs, p.Isend(dst, tagSpreadOut, send.Slice(dst*n, n)))
	}
	if err := p.Waitall(reqs); err != nil {
		return err
	}
	p.FreeRequests(reqs)
	done()
	return nil
}

// VendorAlltoall models a vendor MPI_Alltoall: Bruck for small blocks,
// pairwise exchange for large, the strategy MPICH documents.
func VendorAlltoall(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if n <= 256 && p.Size() >= 8 {
		return BasicBruck(p, send, n, recv)
	}
	return PairwiseAlltoall(p, send, n, recv)
}

// NaiveAlltoall is the P^2-message reference implementation used by
// tests as ground truth.
func NaiveAlltoall(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	reqs := make([]*mpi.Request, 0, 2*P)
	for i := 0; i < P; i++ {
		reqs = append(reqs, p.Irecv(i, tagNaive, recv.Slice(i*n, n)))
	}
	for i := 0; i < P; i++ {
		reqs = append(reqs, p.Isend(i, tagNaive, send.Slice(i*n, n)))
	}
	if err := p.Waitall(reqs); err != nil {
		return err
	}
	p.FreeRequests(reqs)
	return nil
}
