package coll

import (
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// The allreduce family (MPI_Allreduce over byte vectors): every rank
// contributes an n-byte vector and ends with the element-wise
// op-reduction across all P contributions. Two classic algorithms:
// recursive doubling (latency-optimal, every exchange moves the whole
// vector — wins for small n) and the reduce-scatter + allgather
// composition (Rabenseifner: bandwidth-optimal, the vector is chunked
// across ranks so each phase moves ~n bytes total — wins for large n).
// The composition literally calls the other two families with a
// contiguous n/P chunking, which is the point of the shared engine:
// the crossover between the two is the family Auto's decision.

// AllreduceV is the vector allreduce signature: send holds this rank's
// n-byte contribution; recv receives the n-byte reduction over all
// ranks. n and op must agree on every rank.
type AllreduceV func(p *mpi.Proc, op ReduceOp, send, recv buffer.Buf, n int) error

// checkAR validates allreduce arguments.
func checkAR(p *mpi.Proc, op ReduceOp, send, recv buffer.Buf, n int) error {
	if !op.Valid() {
		return errOp(op)
	}
	if n < 0 {
		return fmt.Errorf("coll: negative allreduce vector size %d", n)
	}
	if send.Len() < n {
		return fmt.Errorf("coll: allreduce send buffer %d bytes < vector %d", send.Len(), n)
	}
	if recv.Len() < n {
		return fmt.Errorf("coll: allreduce recv buffer %d bytes < vector %d", recv.Len(), n)
	}
	return nil
}

// arFold* tag the allreduce family's remainder transfers (see agFoldIn).
const (
	arFoldIn  = tagAllreduce + 1000
	arFoldOut = tagAllreduce + 1001
)

// AllreduceDoubling is the recursive-doubling allreduce: log2(p2)
// exchanges with XOR partners, each moving the full n-byte vector and
// folding the partner's copy in, with the usual remainder fold-in/out
// around the power-of-two core. Every exchange moves n bytes, so the
// latency term is the minimal ceil(log2 P)·alpha — the small-vector
// regime's winner.
func AllreduceDoubling(p *mpi.Proc, op ReduceOp, send, recv buffer.Buf, n int) error {
	if err := checkAR(p, op, send, recv, n); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
	if P == 1 || n == 0 {
		return nil
	}
	var scratch buffer.Buf
	if rank < pow2Below(P) {
		scratch = p.AllocBuf(n)
		defer p.FreeBuf(scratch)
	}
	doublingAllreduce(p, op, recv, n, scratch)
	return nil
}

// doublingAllreduce is the step loop of AllreduceDoubling, shared with
// PersistentAR.Start: P > 1, n > 0, recv already holding this rank's
// contribution, and, on the power-of-two core, an n-byte scratch
// (remainder ranks use none).
func doublingAllreduce(p *mpi.Proc, op ReduceOp, recv buffer.Buf, n int, scratch buffer.Buf) {
	P := p.Size()
	rank := p.Rank()
	p2 := pow2Below(P)
	rem := P - p2

	if rank >= p2 {
		// Remainder rank: contribute the vector, take the result back.
		p.Send(rank-p2, arFoldIn, recv.Slice(0, n))
		p.Recv(rank-p2, arFoldOut, recv.Slice(0, n))
		return
	}

	if rank < rem {
		p.Recv(rank+p2, arFoldIn, scratch.Slice(0, n))
		combineBuf(p, op, recv.Slice(0, n), scratch.Slice(0, n))
	}

	done := p.Phase(PhaseComm)
	for si, m := 0, 1; m < p2; si, m = si+1, m<<1 {
		p.SetStep(si)
		tag := tagAllreduce + si
		p.SendRecv(rank^m, tag, recv.Slice(0, n), rank^m, tag, scratch.Slice(0, n))
		combineBuf(p, op, recv.Slice(0, n), scratch.Slice(0, n))
	}
	p.ClearStep()
	done()

	if rank < rem {
		p.Send(rank+p2, arFoldOut, recv.Slice(0, n))
	}
}

// arChunks returns the contiguous n/P chunking of an n-byte vector —
// the first n mod P ranks take one extra byte — as the counts array
// the composed reduce-scatter and allgatherv run over.
func arChunks(P, n int) []int {
	counts := make([]int, P)
	base, rem := n/P, n%P
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// AllreduceRSAG is the reduce-scatter + allgather allreduce
// (Rabenseifner's algorithm): the vector is chunked contiguously
// across ranks, recursive halving reduces each rank's chunk, and the
// dissemination allgatherv reassembles the full reduced vector. Both
// phases move ~n bytes per rank in total, so the bandwidth term is
// about half recursive doubling's — the large-vector regime's winner.
func AllreduceRSAG(p *mpi.Proc, op ReduceOp, send, recv buffer.Buf, n int) error {
	if err := checkAR(p, op, send, recv, n); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	if P == 1 || n == 0 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	counts := arChunks(P, n)
	displs, _ := ContigDispls(counts)
	chunk := p.AllocBuf(counts[rank])
	defer p.FreeBuf(chunk)
	if err := ReduceScatterHalving(p, op, send.Slice(0, n), counts, chunk); err != nil {
		return err
	}
	return AllgathervBruck(p, chunk, counts[rank], recv.Slice(0, n), counts, displs)
}

// SelectAllreduce picks the allreduce algorithm from the machine
// model's estimates — the recursive-doubling vs Rabenseifner crossover
// — as a pure function of the globally agreed (P, n).
func SelectAllreduce(m machine.Model, P, n int) Selection {
	sel := Selection{P: P, MaxBlock: n, AvgBlock: float64(n), Source: "analytic"}
	sel.Candidates = []Candidate{
		{Name: "doubling", PredictedNs: m.EstimateAllreduceDoubling(P, n)},
		{Name: "rsag", PredictedNs: m.EstimateAllreduceRSAG(P, n)},
	}
	best := sel.Candidates[0]
	for _, c := range sel.Candidates[1:] {
		if c.PredictedNs < best.PredictedNs {
			best = c
		}
	}
	sel.Algorithm, sel.PredictedNs = best.Name, best.PredictedNs
	return sel
}

// AutoAllreduce returns the model-guided allreduce.
func AutoAllreduce() AllreduceV {
	return func(p *mpi.Proc, op ReduceOp, send, recv buffer.Buf, n int) error {
		if err := checkAR(p, op, send, recv, n); err != nil {
			return err
		}
		sel := SelectAllreduce(p.World().Model(), p.Size(), n)
		done := p.Phase(sel.PhaseLabel())
		defer done()
		if sel.Algorithm == "rsag" {
			return AllreduceRSAG(p, op, send, recv, n)
		}
		return AllreduceDoubling(p, op, send, recv, n)
	}
}
