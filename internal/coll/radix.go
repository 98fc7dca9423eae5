package coll

import (
	"errors"
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Tunable-radix Bruck.
//
// The Bruck construction works in any base r, not just binary: with
// radix r there are ceil(log_r P) digit positions and, at position k,
// r-1 sub-steps — one per nonzero digit value d — each exchanging the
// blocks whose k-th base-r digit equals d with the rank at distance
// d·r^k. Larger radices transmit each block fewer times (one hop per
// nonzero digit, and indices have fewer digits in a larger base) at the
// price of more messages per position ((r-1)·log_r P total). The
// paper's binary algorithms are the r=2 case: ZeroRotationBruck is
// ZeroRotationBruckRadix(2) and TwoPhaseBruck is TwoPhaseBruckRadix(2)
// (twophase.go). The sub-step sequence, partners, and block lists come
// from the schedule engine's radix walk (schedule.go), which the
// persistent handles additionally freeze and reuse.

// ErrInvalidRadix marks a Bruck radix below 2 passed to
// ZeroRotationBruckRadix, TwoPhaseBruckRadix, or AlltoallvInit.
var ErrInvalidRadix = errors.New("invalid radix")

// errRadix builds the canonical invalid-radix error.
func errRadix(r int) error {
	return fmt.Errorf("coll: radix %d < 2: %w", r, ErrInvalidRadix)
}

// digitSlots appends the relative indices i in [1, P) whose k-th base-r
// digit equals d (1 <= d < r), in increasing order.
func digitSlots(dst []int, P, r, k, d int) []int {
	dst = dst[:0]
	step := 1
	for j := 0; j < k; j++ {
		step *= r
	}
	for base := d * step; base < P; base += r * step {
		hi := base + step
		if hi > P {
			hi = P
		}
		for i := base; i < hi; i++ {
			dst = append(dst, i)
		}
	}
	return dst
}

// rotatedStart and rotatedNext step through the rotation index shared
// by the Bruck variants that skip the initial rotation: slot s starts
// out holding send block (2·rank − s) mod P. rotatedStart returns the
// block for slot 0 and rotatedNext the block for the slot after the one
// holding b, so a pass over every slot divides nothing.
func rotatedStart(rank, P int) int {
	if b := 2 * rank; b < P {
		return b
	}
	return 2*rank - P
}

func rotatedNext(b, P int) int {
	if b == 0 {
		return P - 1
	}
	return b - 1
}

// maxDigitBlocks returns the largest number of blocks any (position,
// digit) sub-step transmits — the staging bound. The top digit position
// can carry up to P-step blocks, so ceil(P/r) is not enough. At r=2 it
// equals (P+1)/2 for power-of-two P and is smaller otherwise.
func maxDigitBlocks(P, r int) int {
	m := 0
	for step := 1; step < P; step *= r {
		for d := 1; d < r && d*step < P; d++ {
			n := 0
			for base := d * step; base < P; base += r * step {
				n += min(step, P-base)
			}
			m = max(m, n)
		}
	}
	return m
}

// ZeroRotationBruckRadix returns a uniform all-to-all implementation
// using radix-r zero-rotation Bruck. r must be at least 2.
func ZeroRotationBruckRadix(r int) Alltoall {
	return func(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
		if r < 2 {
			return errRadix(r)
		}
		return zeroRotation(p, r, send, n, recv)
	}
}

// zeroRotation is radix-r zero-rotation Bruck: the modified Bruck's
// communication pattern (no final rotation) driven by SLOAV's rotation
// index array (no initial rotation). A block is fetched from the send
// buffer through the index on its first transmission and from the
// receive buffer afterwards, which the index records by turning the
// slot's entry to -1. Each step packs straight into the payload it
// sends and unpacks from the one it receives; payloads are real when
// send and recv, the buffers packed from, are, so real count bytes stay
// real in a phantom world (CountsExchange).
func zeroRotation(p *mpi.Proc, r int, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()

	// Rotation index: src[s] is the send-buffer offset of slot s's
	// initial block, or -1 once the slot's block has arrived in recv.
	// Cost O(P), not O(P*n). The index and the walk's lists are the
	// rank's resident int scratch.
	maxB := maxDigitBlocks(P, r)
	ints := p.AllocInts(P + 2*maxB)
	defer p.FreeInts(ints)
	src := ints[:P]
	for s, b := 0, rotatedStart(rank, P); s < P; s, b = s+1, rotatedNext(b, P) {
		src[s] = b * n
	}
	p.Charge(float64(P)) // ~1ns per index entry

	// Self block goes straight to its final position.
	p.Memcpy(recv.Slice(rank*n, n), send.Slice(src[rank], n))
	if P == 1 {
		return nil
	}

	done := p.Phase(PhaseComm)
	defer done()
	defer p.ClearStep()
	real := send.Real() && recv.Real()
	for it := newRadixWalk(P, rank, r, ints[P:P:P+maxB], ints[P+maxB:P+maxB]); it.next(); {
		sub := &it.st
		p.SetStep(it.si)
		total := len(sub.slot) * n
		pl := p.PayloadBuf(total, real)
		for j, s := range sub.slot {
			var blk buffer.Buf
			if o := src[s]; o < 0 {
				blk = recv.Slice(s*n, n)
			} else {
				blk = send.Slice(o, n)
			}
			p.Memcpy(pl.Slice(j*n, n), blk)
		}
		utag := tagRadixUniform + it.si
		p.SendPayload(sub.dst, utag, pl)
		in, err := recvStep(p, sub.src, utag, total)
		if err != nil {
			return err
		}
		for j, s := range sub.slot {
			p.Memcpy(recv.Slice(s*n, n), in.Slice(j*n, n))
			src[s] = -1
		}
		p.FreePayload(in)
	}
	return nil
}

// recvStep receives a uniform step's packed payload, which must hold
// exactly n bytes. A shorter one means the peer packed another block
// size (n differs across ranks); it is freed and reported instead of
// being unpacked past its end.
func recvStep(p *mpi.Proc, src, tag, n int) (buffer.Buf, error) {
	in := p.RecvPayload(src, tag, n)
	if in.Len() != n {
		p.FreePayload(in)
		return buffer.Buf{}, fmt.Errorf("coll: rank %d: step message from rank %d holds %d bytes, want %d: block size differs across ranks",
			p.Rank(), src, in.Len(), n)
	}
	return in, nil
}
