// Package coll implements every all-to-all algorithm studied in the
// paper.
//
// Uniform all-to-all (MPI_Alltoall semantics): BasicBruck, ModifiedBruck,
// and ZeroRotationBruck with explicit memory management; BasicBruckDT,
// ModifiedBruckDT, and ZeroCopyBruckDT using emulated MPI derived
// datatypes; plus PairwiseAlltoall, SpreadOutUniform, and VendorAlltoall
// baselines.
//
// Non-uniform all-to-all (MPI_Alltoallv semantics): the paper's
// PaddedBruck and TwoPhaseBruck, and the SpreadOut, VendorAlltoallv,
// PaddedAlltoall, and SLOAV baselines.
//
// The Bruck-type algorithms walk one radix schedule (schedule.go).
// Zero-rotation, modified Bruck and two-phase Bruck, its persistent
// handle included, run one packed step loop over it
// (twoPhaseState.exchange, twophase.go), which differs between them
// only in where each sub-step's incoming block sizes come from: a
// metadata exchange, a persistent handle's record, or the uniform n.
//
// All algorithms share the same function signatures, mirroring the
// paper's claim that its implementations are drop-in replacements for
// MPI_Alltoall / MPI_Alltoallv.
package coll

import (
	"fmt"
	"math"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Alltoall is the uniform all-to-all signature: send and recv are P
// blocks of exactly n bytes each, laid out contiguously in rank order.
type Alltoall func(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error

// Alltoallv is the non-uniform all-to-all signature, mirroring
// MPI_Alltoallv: block i of send starts at sdispls[i] and holds
// scounts[i] bytes destined for rank i; block i of recv starts at
// rdispls[i] with capacity rcounts[i] for the data arriving from rank i.
// As in MPI, the caller must already know rcounts (see CountsExchange).
type Alltoallv func(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error

// Phase names recorded by the algorithms, for breakdowns like the
// paper's Figure 2b.
const (
	PhaseInitRotation  = "init-rotation"
	PhaseComm          = "comm"
	PhaseFinalRotation = "final-rotation"
	PhasePad           = "pad"
	PhaseScan          = "scan"
)

// checkUniform validates uniform all-to-all arguments.
func checkUniform(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	P := p.Size()
	if n < 0 {
		return fmt.Errorf("coll: negative block size %d", n)
	}
	if send.Len() < P*n {
		return fmt.Errorf("coll: send buffer %d bytes < %d ranks x %d bytes", send.Len(), P, n)
	}
	if recv.Len() < P*n {
		return fmt.Errorf("coll: recv buffer %d bytes < %d ranks x %d bytes", recv.Len(), P, n)
	}
	return nil
}

// checkV validates non-uniform all-to-all arguments.
func checkV(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	P := p.Size()
	if len(scounts) != P || len(sdispls) != P || len(rcounts) != P || len(rdispls) != P {
		return fmt.Errorf("coll: count/displacement arrays must have length %d (got %d/%d/%d/%d)",
			P, len(scounts), len(sdispls), len(rcounts), len(rdispls))
	}
	for i := 0; i < P; i++ {
		if scounts[i] < 0 || rcounts[i] < 0 {
			return fmt.Errorf("coll: negative count for rank %d", i)
		}
		if sdispls[i] < 0 {
			return fmt.Errorf("coll: negative send displacement for rank %d", i)
		}
		if rdispls[i] < 0 {
			return fmt.Errorf("coll: negative recv displacement for rank %d", i)
		}
		// displ+count can wrap past MaxInt; a wrapped end would compare
		// small and smuggle the bogus block past the bounds check (the
		// same guard the public validateLayout has).
		if scounts[i] > math.MaxInt-sdispls[i] || rcounts[i] > math.MaxInt-rdispls[i] {
			return fmt.Errorf("coll: block for rank %d overflows the address space", i)
		}
		if sdispls[i] < 0 || sdispls[i]+scounts[i] > send.Len() {
			return fmt.Errorf("coll: send block %d [%d,%d) outside %d-byte buffer",
				i, sdispls[i], sdispls[i]+scounts[i], send.Len())
		}
		if rdispls[i] < 0 || rdispls[i]+rcounts[i] > recv.Len() {
			return fmt.Errorf("coll: recv block %d [%d,%d) outside %d-byte buffer",
				i, rdispls[i], rdispls[i]+rcounts[i], recv.Len())
		}
	}
	return nil
}

// maxInts returns the maximum of xs (0 for empty).
func maxInts(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ContigDispls returns the displacement array for counts packed
// back-to-back, plus the total size.
func ContigDispls(counts []int) ([]int, int) {
	d := make([]int, len(counts))
	off := 0
	for i, c := range counts {
		d[i] = off
		off += c
	}
	return d, off
}

// CountsExchange fills rcounts with the per-source receive counts for a
// planned Alltoallv: rcounts[s] on this rank becomes scounts[this] on
// rank s. Applications use it before calling any Alltoallv, exactly as
// MPI codes call MPI_Alltoall on the counts first. It is implemented with
// the zero-rotation uniform Bruck, so the count exchange itself is
// log-time.
func CountsExchange(p *mpi.Proc, scounts []int, rcounts []int) error {
	P := p.Size()
	if len(scounts) != P || len(rcounts) != P {
		return fmt.Errorf("coll: CountsExchange needs %d-length arrays", P)
	}
	// Counts drive control flow, so they stay real even in phantom
	// worlds.
	sb := p.AllocReal(8 * P)
	rb := p.AllocReal(8 * P)
	defer p.FreeBuf(sb, rb)
	for i, c := range scounts {
		sb.PutUint64(8*i, uint64(c))
	}
	if err := ZeroRotationBruck(p, sb, 8, rb); err != nil {
		return err
	}
	for i := range rcounts {
		rcounts[i] = int(rb.Uint64(8 * i))
	}
	return nil
}

// Tag blocks per algorithm family (user tags >= 0; collectives reserve
// tags below -1000).
const (
	tagBruck     = 100 // basic and modified uniform Bruck comm steps
	tagPairwise  = 140
	tagSpreadOut = 160
	tagSloav     = 260
	tagNaive     = 300
)

// Log-P schedule tags. Every schedule-driven collective indexes its
// tags by the running step counter of its walk, in a band of its own:
// the zero-rotation exchange, the two-phase metadata and payload
// streams, and the collective families. Each band is 1<<24 tags wide.
// A radix schedule has fewer than (r-1)*ceil(log_r P) + r sub-steps and
// a family needs at most ceil(log2 P) + 2 tags (schedule steps plus the
// remainder fold-in/fold-out transfers), so the bands stay disjoint for
// any realistic world, and the largest base (6<<24) stays far below the
// int32 ceiling of the match key. A packed (position, digit) tag would
// alias instead: base + k*16 + d collides for (k, d) vs (k+1, d-16)
// once d can reach 17 (r >= 18), and two bands 20 tags apart let
// metadata tags of later positions walk into the data band for r >= 6.
const (
	tagRadixUniform = 1 << 24 // zero-rotation comm sub-steps
	tagRadixMeta    = 2 << 24 // two-phase metadata
	tagRadixData    = 3 << 24 // two-phase payload
	tagAllgatherv   = 4 << 24 // allgatherv family schedule steps
	tagRedScat      = 5 << 24 // reduce-scatter family schedule steps + folds
	tagAllreduce    = 6 << 24 // allreduce family schedule steps + folds
)
