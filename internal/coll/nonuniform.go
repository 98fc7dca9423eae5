package coll

import (
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Non-uniform all-to-all baselines and the padded Bruck algorithm. The
// two-phase Bruck lives in twophase.go and the SLOAV baseline in
// sloav.go.

// selfCopy moves this rank's own block straight from send to recv.
func selfCopy(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	r := p.Rank()
	if scounts[r] != rcounts[r] {
		return fmt.Errorf("coll: self block size mismatch: sending %d, expecting %d", scounts[r], rcounts[r])
	}
	p.Memcpy(recv.Slice(rdispls[r], rcounts[r]), send.Slice(sdispls[r], scounts[r]))
	return nil
}

// SpreadOut is the linear-time non-uniform baseline: post every
// nonblocking receive and send at once, then wait. Popular MPI libraries
// implement MPI_Alltoallv this way.
func SpreadOut(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	return spreadOutWindowed(p, send, scounts, sdispls, recv, rcounts, rdispls, 0)
}

// VendorAlltoallv models the vendor (Cray/MPICH-style) MPI_Alltoallv:
// the spread-out algorithm with the request window throttled to keep
// message-queue costs bounded.
func VendorAlltoallv(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	return spreadOutWindowed(p, send, scounts, sdispls, recv, rcounts, rdispls, 128)
}

// spreadOutWindowed exchanges with peers at increasing ring offsets,
// window pairs of requests at a time (0 means unthrottled).
func spreadOutWindowed(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int, window int) error {
	if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	if err := selfCopy(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	if window <= 0 {
		window = P
	}
	done := p.Phase(PhaseComm)
	defer done()
	defer p.ClearStep()
	reqs := make([]*mpi.Request, 0, 2*window)
	for lo := 1; lo < P; lo += window {
		// Each request window is one annotated step (spread-out has a
		// single window, the vendor throttle several).
		p.SetStep((lo - 1) / window)
		hi := lo + window
		if hi > P {
			hi = P
		}
		reqs = reqs[:0]
		for i := lo; i < hi; i++ {
			src := (rank - i + P) % P
			reqs = append(reqs, p.Irecv(src, tagSpreadOut, recv.Slice(rdispls[src], rcounts[src])))
		}
		for i := lo; i < hi; i++ {
			dst := (rank + i) % P
			reqs = append(reqs, p.Isend(dst, tagSpreadOut, send.Slice(sdispls[dst], scounts[dst])))
		}
		if err := p.Waitall(reqs); err != nil {
			return err
		}
		p.FreeRequests(reqs)
	}
	return nil
}

// NaiveAlltoallv is the ground-truth reference used by tests: one
// blocking round trip per peer in rank order.
func NaiveAlltoallv(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	P := p.Size()
	reqs := make([]*mpi.Request, 0, 2*P)
	for i := 0; i < P; i++ {
		reqs = append(reqs, p.Irecv(i, tagNaive, recv.Slice(rdispls[i], rcounts[i])))
	}
	for i := 0; i < P; i++ {
		reqs = append(reqs, p.Isend(i, tagNaive, send.Slice(sdispls[i], scounts[i])))
	}
	if err := p.Waitall(reqs); err != nil {
		return err
	}
	p.FreeRequests(reqs)
	return nil
}

// paddedCommon implements padded Bruck / padded Alltoall: pad every
// block to the global maximum size N, run a uniform all-to-all, and scan
// the true bytes out of the padding (Section 3.1 of the paper).
func paddedCommon(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int, uniform Alltoall) error {
	if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return err
	}
	// Find the global maximum block size with an Allreduce.
	N := p.AllreduceMaxInt(maxInts(scounts))
	return paddedWithMax(p, N, send, scounts, sdispls, recv, rcounts, rdispls, uniform)
}

// paddedWithMax is the padded exchange after validation and the
// max-block Allreduce (see twoPhaseExchange). N must be the true global
// maximum of scounts across ranks.
func paddedWithMax(p *mpi.Proc, N int, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int, uniform Alltoall) error {
	P := p.Size()
	if N == 0 {
		return nil
	}

	// Pad: every block copied into a fixed N-byte cell. The cells'
	// padding bytes are whatever the arena hands back — they travel on
	// the wire but the scan below never reads them.
	done := p.Phase(PhasePad)
	ps := p.AllocBuf(P * N)
	defer p.FreeBuf(ps)
	for i := 0; i < P; i++ {
		p.Memcpy(ps.Slice(i*N, scounts[i]), send.Slice(sdispls[i], scounts[i]))
	}
	done()

	pr := p.AllocBuf(P * N)
	defer p.FreeBuf(pr)
	if err := uniform(p, ps, N, pr); err != nil {
		return err
	}

	// Scan: extract the real bytes using rcounts.
	done = p.Phase(PhaseScan)
	for i := 0; i < P; i++ {
		p.Memcpy(recv.Slice(rdispls[i], rcounts[i]), pr.Slice(i*N, rcounts[i]))
	}
	done()
	return nil
}

// PaddedBruck is the paper's first non-uniform algorithm: padding plus
// the zero-rotation uniform Bruck. Effective when the exchange is
// latency-bound (very small blocks), per inequality (3).
func PaddedBruck(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	return paddedCommon(p, send, scounts, sdispls, recv, rcounts, rdispls, ZeroRotationBruck)
}

// PaddedAlltoall pads like PaddedBruck but hands the uniform exchange to
// the vendor MPI_Alltoall, the comparison baseline of Figure 6.
func PaddedAlltoall(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) error {
	return paddedCommon(p, send, scounts, sdispls, recv, rcounts, rdispls, VendorAlltoall)
}
