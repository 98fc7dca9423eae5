package coll

import (
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// The reduce-scatter family (MPI_Reduce_scatter semantics): every rank
// contributes a full vector of P contiguous segments (counts[i] bytes
// for rank i, packed in rank order) and ends with the element-wise
// op-reduction of segment rank across all contributions. As with
// allgatherv, counts are part of the call contract on every rank, so
// no metadata travels. The log-P algorithm is recursive halving
// (halvingReduceScatter); the linear baseline reduces each rank's
// segment directly from P-1 messages.

// ReduceScatter is the reducing scatter signature: send holds P
// segments packed contiguously in rank order (segment i is counts[i]
// bytes), recv receives the counts[rank]-byte reduction of segment
// rank over all P contributions. All ranks must pass identical counts
// and a valid op.
type ReduceScatter func(p *mpi.Proc, op ReduceOp, send buffer.Buf, counts []int, recv buffer.Buf) error

// checkRS validates reduce-scatter arguments, returning the segment
// displacements and total for the packed send layout (the layout-only
// part, shared with ReduceScatterInit, is checkRSLayout in
// families_persistent.go).
func checkRS(p *mpi.Proc, op ReduceOp, send buffer.Buf, counts []int, recv buffer.Buf) ([]int, int, error) {
	if !op.Valid() {
		return nil, 0, errOp(op)
	}
	displs, total, err := checkRSLayout(p, counts)
	if err != nil {
		return nil, 0, err
	}
	if send.Len() < total {
		return nil, 0, fmt.Errorf("coll: reduce-scatter send buffer %d bytes < vector %d", send.Len(), total)
	}
	if recv.Len() < counts[p.Rank()] {
		return nil, 0, fmt.Errorf("coll: reduce-scatter recv buffer %d bytes < segment %d", recv.Len(), counts[p.Rank()])
	}
	return displs, total, nil
}

// rsFold* tag the reduce-scatter family's remainder transfers, above
// any schedule step's tag (see agFoldIn).
const (
	rsFoldIn  = tagRedScat + 1000
	rsFoldOut = tagRedScat + 1001
	rsLinear  = tagRedScat + 1002
)

// ReduceScatterHalving is the recursive-halving reduce-scatter:
// log2(p2) exchanges at halving distances, each sending the half of
// the vector the partner's sub-group is responsible for and folding
// the received half into the local partial sums, so every step halves
// the live data. The P - p2 remainder ranks fold their whole vector
// into their core partner up front and receive their reduced segment
// back at the end — the same remainder discipline as the scalar fused
// allreduce (internal/mpi/collectives.go).
func ReduceScatterHalving(p *mpi.Proc, op ReduceOp, send buffer.Buf, counts []int, recv buffer.Buf) error {
	displs, total, err := checkRS(p, op, send, counts, recv)
	if err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	if P == 1 {
		p.Memcpy(recv.Slice(0, counts[0]), send.Slice(0, counts[0]))
		return nil
	}
	p.Charge(float64(P))
	if total == 0 {
		return nil
	}
	var w buffer.Buf
	if rank < pow2Below(P) {
		w = p.AllocBuf(total)
		defer p.FreeBuf(w)
	}
	halvingReduceScatter(p, op, send, counts, displs, total, recv, w)
	return nil
}

// halvingReduceScatter is the step loop of ReduceScatterHalving, shared
// with PersistentRS.Start: P > 1, a nonempty vector of total bytes
// packed at displs, and, on the power-of-two core, a working buffer w
// of total bytes (remainder ranks use none). Each step packs straight
// into the payload it sends and folds straight from the one it
// receives.
func halvingReduceScatter(p *mpi.Proc, op ReduceOp, send buffer.Buf, counts, displs []int, total int,
	recv, w buffer.Buf) {
	P := p.Size()
	rank := p.Rank()
	p2 := pow2Below(P)
	rem := P - p2

	if rank >= p2 {
		// Remainder rank: the whole vector folds into the core partner,
		// which owns this rank's segment until the fold-out.
		p.Send(rank-p2, rsFoldIn, send.Slice(0, total))
		p.Recv(rank-p2, rsFoldOut, recv.Slice(0, counts[rank]))
		return
	}

	p.Memcpy(w.Slice(0, total), send.Slice(0, total))
	if rank < rem {
		in := p.RecvPayload(rank+p2, rsFoldIn, total)
		combineBuf(p, op, w.Slice(0, total), in)
		p.FreePayload(in)
	}

	// sendPacked gathers the listed segments of w into a payload of n
	// bytes (their total) and sends it; fold combines a received packed
	// run back into w's segments and frees it.
	sendPacked := func(ids []int, n, dst, tag int) {
		pl := p.PayloadBuf(n, w.Real())
		off := 0
		for _, s := range ids {
			p.Memcpy(pl.Slice(off, counts[s]), w.Slice(displs[s], counts[s]))
			off += counts[s]
		}
		p.SendPayload(dst, tag, pl)
	}
	fold := func(ids []int, in buffer.Buf) {
		off := 0
		for _, s := range ids {
			combineBuf(p, op, w.Slice(displs[s], counts[s]), in.Slice(off, counts[s]))
			off += counts[s]
		}
		p.FreePayload(in)
	}
	bytesOf := func(ids []int) int {
		n := 0
		for _, s := range ids {
			n += counts[s]
		}
		return n
	}

	// At group size g the rank's group [lo, lo+g) splits in halves: the
	// rank keeps its own half's segments and sends the other half's to
	// partner rank^(g/2), which keeps those.
	done := p.Phase(PhaseComm)
	segs := make([]int, 2*p2)
	kept, sent := segs[:0:p2], segs[p2:p2]
	for si, g := 0, p2; g > 1; si, g = si+1, g>>1 {
		p.SetStep(si)
		half := g / 2
		myLo, theirLo := rank&^(g-1), rank&^(g-1)+half
		if rank&half != 0 {
			myLo, theirLo = theirLo, myLo
		}
		kept = halvingSegs(kept, myLo, half, p2, rem)
		sent = halvingSegs(sent, theirLo, half, p2, rem)
		tag := tagRedScat + si
		sendPacked(sent, bytesOf(sent), rank^half, tag)
		fold(kept, p.RecvPayload(rank^half, tag, bytesOf(kept)))
	}
	p.ClearStep()
	done()

	p.Memcpy(recv.Slice(0, counts[rank]), w.Slice(displs[rank], counts[rank]))
	if rank < rem {
		p.Send(rank+p2, rsFoldOut, w.Slice(displs[rank+p2], counts[rank+p2]))
	}
}

// ReduceScatterDirect is the linear baseline (and the conformance
// grid's in-family oracle): every rank sends segment i of its vector
// straight to rank i and folds the P-1 contributions arriving for its
// own segment, in rank order.
func ReduceScatterDirect(p *mpi.Proc, op ReduceOp, send buffer.Buf, counts []int, recv buffer.Buf) error {
	displs, total, err := checkRS(p, op, send, counts, recv)
	if err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	p.Memcpy(recv.Slice(0, counts[rank]), send.Slice(displs[rank], counts[rank]))
	if P == 1 || total == 0 {
		return nil
	}
	mine := counts[rank]
	scratch := p.AllocBuf((P - 1) * mine)
	defer p.FreeBuf(scratch)
	reqs := make([]*mpi.Request, 0, 2*(P-1))
	for i := 1; i < P; i++ {
		src := (rank - i + P) % P
		reqs = append(reqs, p.Irecv(src, rsLinear, scratch.Slice((i-1)*mine, mine)))
	}
	for i := 1; i < P; i++ {
		dst := (rank + i) % P
		reqs = append(reqs, p.Isend(dst, rsLinear, send.Slice(displs[dst], counts[dst])))
	}
	if err := p.Waitall(reqs); err != nil {
		return err
	}
	p.FreeRequests(reqs)
	for i := 1; i < P; i++ {
		combineBuf(p, op, recv.Slice(0, mine), scratch.Slice((i-1)*mine, mine))
	}
	return nil
}

// SelectReduceScatter picks the reduce-scatter algorithm from the
// machine model's estimates; like SelectAllgatherv it is a pure
// function of the globally agreed counts, so every rank picks
// identically without communicating.
func SelectReduceScatter(m machine.Model, P int, total int64) Selection {
	sel := Selection{P: P, Source: "analytic"}
	avg := 0.0
	if P > 0 {
		avg = float64(total) / float64(P)
	}
	sel.AvgBlock = avg
	sel.Candidates = []Candidate{
		{Name: "halving", PredictedNs: m.EstimateReduceScatterHalving(P, avg)},
		{Name: "direct", PredictedNs: m.EstimateReduceScatterDirect(P, avg)},
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

// AutoReduceScatter returns the model-guided reduce-scatter.
func AutoReduceScatter() ReduceScatter {
	return func(p *mpi.Proc, op ReduceOp, send buffer.Buf, counts []int, recv buffer.Buf) error {
		if _, _, err := checkRS(p, op, send, counts, recv); err != nil {
			return err
		}
		var total int64
		for _, c := range counts {
			total += int64(c)
		}
		sel := SelectReduceScatter(p.World().Model(), p.Size(), total)
		done := p.Phase(sel.PhaseLabel())
		defer done()
		if sel.Algorithm == "direct" {
			return ReduceScatterDirect(p, op, send, counts, recv)
		}
		return ReduceScatterHalving(p, op, send, counts, recv)
	}
}
