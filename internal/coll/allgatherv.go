package coll

import (
	"fmt"
	"math"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// The allgatherv family (MPI_Allgatherv semantics): every rank
// contributes one block and ends with all P blocks. As in MPI, every
// rank knows the full rcounts/rdispls layout up front, so — unlike the
// non-uniform all-to-all — no metadata ever travels: both sides of
// every exchange derive the moved byte counts from the globally known
// counts. Two log-P algorithms each run one plain step loop:
// Bruck-style dissemination (dissemAllgatherv), whose steps move
// contiguous work-buffer prefixes and need no packing, and recursive
// doubling (AllgathervDoubling), whose steps land blocks directly at
// their final displacements and need no final scatter. A linear
// baseline (one message per peer) completes the family.

// Allgatherv is the non-uniform all-gather signature, mirroring
// MPI_Allgatherv: send holds this rank's scount-byte contribution;
// after the call, block i of recv (rcounts[i] bytes at rdispls[i])
// holds rank i's contribution on every rank. scount must equal
// rcounts[rank], and all ranks must pass identical rcounts/rdispls.
type Allgatherv func(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls []int) error

// checkAG validates allgatherv arguments.
func checkAG(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkGatherLayout(p, rcounts, rdispls, recv.Len()); err != nil {
		return err
	}
	if scount != rcounts[p.Rank()] {
		return fmt.Errorf("coll: allgatherv: rank %d contributes %d bytes, rcounts says %d",
			p.Rank(), scount, rcounts[p.Rank()])
	}
	if send.Len() < scount {
		return fmt.Errorf("coll: allgatherv: send buffer %d bytes < contribution %d", send.Len(), scount)
	}
	return nil
}

// checkGatherLayout validates a gather-side (counts, displs) layout
// against a buffer length, with the same int-overflow guard as checkV.
func checkGatherLayout(p *mpi.Proc, counts, displs []int, bufLen int) error {
	P := p.Size()
	if len(counts) != P || len(displs) != P {
		return fmt.Errorf("coll: count/displacement arrays must have length %d (got %d/%d)",
			P, len(counts), len(displs))
	}
	for i := 0; i < P; i++ {
		if counts[i] < 0 {
			return fmt.Errorf("coll: negative count for rank %d", i)
		}
		if displs[i] < 0 {
			return fmt.Errorf("coll: negative displacement for rank %d", i)
		}
		if counts[i] > math.MaxInt-displs[i] {
			return fmt.Errorf("coll: block for rank %d overflows the address space", i)
		}
		if displs[i]+counts[i] > bufLen {
			return fmt.Errorf("coll: block %d [%d,%d) outside %d-byte buffer",
				i, displs[i], displs[i]+counts[i], bufLen)
		}
	}
	return nil
}

// relOffsets returns the work-buffer offsets of the relative blocks of
// a dissemination allgatherv at one rank — woff[j] is where the block
// of global rank (rank+j) mod P starts — plus the total byte count.
func relOffsets(P, rank int, rcounts []int) ([]int, int) {
	woff := make([]int, P+1)
	for j := 0; j < P; j++ {
		woff[j+1] = woff[j] + rcounts[(rank+j)%P]
	}
	return woff, woff[P]
}

// AllgathervBruck is the Bruck-style dissemination allgatherv:
// ceil(log2 P) steps at doubling distances, each sending the
// accumulated work-buffer prefix — contiguous, so the exchange itself
// performs no packing copies — followed by a final scatter of the
// relative blocks to their absolute displacements.
func AllgathervBruck(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkAG(p, send, scount, recv, rcounts, rdispls); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	if P == 1 {
		p.Memcpy(recv.Slice(rdispls[0], rcounts[0]), send.Slice(0, scount))
		return nil
	}
	woff, total := relOffsets(P, rank, rcounts)
	p.Charge(float64(P))
	if total == 0 {
		return nil
	}
	w := p.AllocBuf(total)
	defer p.FreeBuf(w)
	dissemAllgatherv(p, send, scount, recv, rcounts, rdispls, woff, w)
	return nil
}

// dissemAllgatherv is the step loop of AllgathervBruck, shared with
// PersistentAG.Start: P > 1, a nonempty layout, woff from relOffsets,
// and a work buffer w of woff[P] bytes. At the step with distance m the
// rank sends its first min(m, P-m) accumulated blocks (a contiguous
// work-buffer prefix) to rank-m and receives as many from rank+m, which
// extend the prefix at relative block m. Relative block j holds the
// contribution of global rank (rank+j) mod P, so both sides derive
// every size from the globally known counts.
func dissemAllgatherv(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls, woff []int, w buffer.Buf) {
	P := p.Size()
	rank := p.Rank()
	p.Memcpy(w.Slice(0, scount), send.Slice(0, scount))

	done := p.Phase(PhaseComm)
	for si, m := 0, 1; m < P; si, m = si+1, m<<1 {
		p.SetStep(si)
		cnt := min(m, P-m)
		out := woff[cnt]
		in := woff[m+cnt] - woff[m]
		tag := tagAllgatherv + si
		p.SendRecv((rank-m+P)%P, tag, w.Slice(0, out), (rank+m)%P, tag, w.Slice(woff[m], in))
	}
	p.ClearStep()
	done()

	done = p.Phase(PhaseFinalRotation)
	defer done()
	for j := 0; j < P; j++ {
		g := (rank + j) % P
		p.Memcpy(recv.Slice(rdispls[g], rcounts[g]), w.Slice(woff[j], rcounts[g]))
	}
}

// agFold* tag the allgatherv family's remainder transfers, above any
// schedule step's tag (a schedule has far fewer than 1000 steps).
const (
	agFoldIn  = tagAllgatherv + 1000
	agFoldOut = tagAllgatherv + 1001
)

// AllgathervDoubling is the recursive-doubling allgatherv: the
// power-of-two core exchanges doubling block sets with XOR partners,
// placing every block directly at its final displacement (no work
// buffer, no final scatter, but per-block packing each step). The
// P - p2 remainder ranks fold their block into their core partner
// before the doubling and receive the packed full result after it.
func AllgathervDoubling(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkAG(p, send, scount, recv, rcounts, rdispls); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	if P == 1 {
		p.Memcpy(recv.Slice(rdispls[0], rcounts[0]), send.Slice(0, scount))
		return nil
	}
	total := 0
	for _, c := range rcounts {
		total += c
	}
	p.Charge(float64(P))
	if total == 0 {
		return nil
	}
	p2 := pow2Below(P)
	rem := P - p2

	// sendPacked packs the blocks of the listed ranks from recv straight
	// into a payload of n bytes (their total) and sends it; unpack
	// scatters a received payload back out and frees it.
	sendPacked := func(ids []int, n, dst, tag int) {
		pl := p.PayloadBuf(n, recv.Real())
		off := 0
		for _, g := range ids {
			p.Memcpy(pl.Slice(off, rcounts[g]), recv.Slice(rdispls[g], rcounts[g]))
			off += rcounts[g]
		}
		p.SendPayload(dst, tag, pl)
	}
	unpack := func(ids []int, from buffer.Buf) {
		off := 0
		for _, g := range ids {
			p.Memcpy(recv.Slice(rdispls[g], rcounts[g]), from.Slice(off, rcounts[g]))
			off += rcounts[g]
		}
		p.FreePayload(from)
	}
	bytesOf := func(ids []int) int {
		n := 0
		for _, g := range ids {
			n += rcounts[g]
		}
		return n
	}

	if rank >= p2 {
		// Remainder rank: fold the block in, take the full result out.
		p.Send(rank-p2, agFoldIn, send.Slice(0, scount))
		in := p.RecvPayload(rank-p2, agFoldOut, total)
		all := make([]int, P)
		for g := range all {
			all[g] = g
		}
		unpack(all, in)
		return nil
	}

	p.Memcpy(recv.Slice(rdispls[rank], rcounts[rank]), send.Slice(0, scount))
	if rank < rem {
		p.Recv(rank+p2, agFoldIn, recv.Slice(rdispls[rank+p2], rcounts[rank+p2]))
	}

	// At the step with mask m the rank sends its owned block set to
	// partner rank^m and receives the partner's.
	done := p.Phase(PhaseComm)
	ids := make([]int, 2*p2)
	owned, theirs := ids[:0:p2], ids[p2:p2]
	for si, m := 0, 1; m < p2; si, m = si+1, m<<1 {
		p.SetStep(si)
		partner := rank ^ m
		owned = doublingOwned(owned, rank, m, p2, rem)
		theirs = doublingOwned(theirs, partner, m, p2, rem)
		tag := tagAllgatherv + si
		sendPacked(owned, bytesOf(owned), partner, tag)
		unpack(theirs, p.RecvPayload(partner, tag, bytesOf(theirs)))
	}
	p.ClearStep()
	done()

	if rank < rem {
		all := make([]int, P)
		for g := range all {
			all[g] = g
		}
		sendPacked(all, total, rank+p2, agFoldOut)
	}
	return nil
}

// agLinear tags the linear baseline's single round of messages.
const agLinear = tagAllgatherv + 1002

// AllgathervLinear is the linear baseline (and the conformance grid's
// in-family oracle): every rank posts one receive per peer block and
// one send of its contribution to every peer, spread-out style.
func AllgathervLinear(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls []int) error {
	if err := checkAG(p, send, scount, recv, rcounts, rdispls); err != nil {
		return err
	}
	P := p.Size()
	rank := p.Rank()
	p.Memcpy(recv.Slice(rdispls[rank], rcounts[rank]), send.Slice(0, scount))
	if P == 1 {
		return nil
	}
	reqs := make([]*mpi.Request, 0, 2*(P-1))
	for i := 1; i < P; i++ {
		src := (rank - i + P) % P
		reqs = append(reqs, p.Irecv(src, agLinear, recv.Slice(rdispls[src], rcounts[src])))
	}
	for i := 1; i < P; i++ {
		dst := (rank + i) % P
		reqs = append(reqs, p.Isend(dst, agLinear, send.Slice(0, scount)))
	}
	if err := p.Waitall(reqs); err != nil {
		return err
	}
	p.FreeRequests(reqs)
	return nil
}

// SelectAllgatherv picks the allgatherv algorithm for a globally known
// layout from the machine model's estimates. It is a pure function of
// the globally agreed counts, so every rank picks identically at zero
// communication cost — the family's selection needs no reduction
// because the layout is part of the call contract.
func SelectAllgatherv(m machine.Model, P int, total int64) Selection {
	sel := Selection{P: P, Source: "analytic"}
	avg := 0.0
	if P > 0 {
		avg = float64(total) / float64(P)
	}
	sel.AvgBlock = avg
	sel.Candidates = []Candidate{
		{Name: "bruck", PredictedNs: m.EstimateAllgathervBruck(P, avg)},
		{Name: "doubling", PredictedNs: m.EstimateAllgathervDoubling(P, avg)},
		{Name: "linear", PredictedNs: m.EstimateAllgathervLinear(P, avg)},
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

// AutoAllgatherv returns the model-guided allgatherv: the machine
// model's cheapest family member for the call's globally known layout.
// The decision appears in traces exactly like the Alltoallv Auto's
// ("auto:<algorithm> pred=<ns> analytic").
func AutoAllgatherv() Allgatherv {
	return func(p *mpi.Proc, send buffer.Buf, scount int, recv buffer.Buf, rcounts, rdispls []int) error {
		if err := checkAG(p, send, scount, recv, rcounts, rdispls); err != nil {
			return err
		}
		var total int64
		for _, c := range rcounts {
			total += int64(c)
		}
		sel := SelectAllgatherv(p.World().Model(), p.Size(), total)
		done := p.Phase(sel.PhaseLabel())
		defer done()
		switch sel.Algorithm {
		case "doubling":
			return AllgathervDoubling(p, send, scount, recv, rcounts, rdispls)
		case "linear":
			return AllgathervLinear(p, send, scount, recv, rcounts, rdispls)
		default:
			return AllgathervBruck(p, send, scount, recv, rcounts, rdispls)
		}
	}
}
