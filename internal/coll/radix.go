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
// from the schedule engine's radix walk (schedule.go), and both run the
// one packed step loop, twoPhaseState.exchange.

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
// index array (no initial rotation). It is the shared step loop
// (twoPhaseState.exchange) with n-byte blocks and recv as W: a block
// is read from the send buffer through the rotation index on its first
// transmission and from recv afterwards. Payloads are real when send
// and recv, the buffers packed from, are, so real count bytes stay real
// in a phantom world (CountsExchange).
func zeroRotation(p *mpi.Proc, r int, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()

	// Rotation index: every slot starts out holding its n-byte block in
	// send, block b at sdispls[b] = b·n. Cost O(P), not O(P*n). The
	// index and the walk's lists are the rank's resident int scratch.
	var st twoPhaseState
	st.init(p, r, n, recv, tagRadixUniform)
	defer st.free(p)
	sdispls := p.AllocInts(P)
	defer p.FreeInts(sdispls)
	for i := range sdispls {
		st.blk[i], sdispls[i] = n, i*n
	}
	p.Charge(float64(P)) // ~1ns per index entry

	// Self block goes straight to its final position.
	p.Memcpy(recv.Slice(rank*n, n), send.Slice(rank*n, n))
	if P == 1 {
		return nil
	}

	done := p.Phase(PhaseComm)
	defer done()
	defer p.ClearStep()
	return st.exchange(p, send, sdispls, recv, nil, nil)
}
