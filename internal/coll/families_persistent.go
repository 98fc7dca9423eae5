package coll

import (
	"fmt"
	"math"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Persistent handles for the collective families (the MPI_*_init
// analogues). Every family's layout is globally known at init, so there
// is no metadata to record: init validates the layout, charges the
// immediate algorithm's O(P) setup cost once and pins the scratch from
// the rank's arena, and every Start runs the immediate algorithm's step
// loop on the pinned buffers, byte-exact with it (same partners, tags,
// and message sizes). The handles share the persistentHandle shell
// (persistent.go) with PersistentV.

// PersistentAG is a reusable allgatherv handle returned by
// AllgathervInit. Start runs the dissemination allgatherv.
type PersistentAG struct {
	persistentHandle
	rcounts []int
	rdispls []int
	woff    []int
	total   int
	w       buffer.Buf
}

// AllgathervInit builds a persistent allgatherv handle for a frozen
// layout (this rank contributes rcounts[rank] bytes). It is a
// collective: all ranks must initialize together with identical
// arrays. The slices are copied.
func AllgathervInit(p *mpi.Proc, rcounts, rdispls []int) (*PersistentAG, error) {
	// Validate the layout against the minimal conforming buffers; Start
	// re-validates the real ones.
	if err := checkGatherLayout(p, rcounts, rdispls, span(rcounts, rdispls)); err != nil {
		return nil, err
	}
	P := p.Size()
	h := &PersistentAG{
		persistentHandle: persistentHandle{p: p},
		rcounts:          append([]int(nil), rcounts...),
		rdispls:          append([]int(nil), rdispls...),
	}
	h.woff, h.total = relOffsets(P, p.Rank(), rcounts)
	p.Charge(float64(P))
	if P > 1 && h.total > 0 {
		h.w = h.pin(h.total)
	}
	return h, nil
}

// RecvSpan returns the minimum receive buffer length Start accepts.
func (h *PersistentAG) RecvSpan() int { return span(h.rcounts, h.rdispls) }

// Start performs one allgatherv with the frozen layout: send must hold
// this rank's rcounts[rank]-byte contribution. Collective; byte-exact
// with AllgathervBruck.
func (h *PersistentAG) Start(send, recv buffer.Buf) error {
	p := h.p
	scount := h.rcounts[p.Rank()]
	if err := h.begin(checkAG(p, send, scount, recv, h.rcounts, h.rdispls)); err != nil {
		return err
	}
	if p.Size() == 1 {
		p.Memcpy(recv.Slice(h.rdispls[0], h.rcounts[0]), send.Slice(0, scount))
	} else if h.total > 0 {
		dissemAllgatherv(p, send, scount, recv, h.rcounts, h.rdispls, h.woff, h.w)
	}
	return nil
}

// PersistentRS is a reusable reduce-scatter handle returned by
// ReduceScatterInit. Start runs the recursive-halving reduce-scatter.
type PersistentRS struct {
	persistentHandle
	op             ReduceOp
	counts, displs []int
	total          int
	w              buffer.Buf
}

// ReduceScatterInit builds a persistent reduce-scatter handle for a
// frozen (op, counts). Collective; the counts slice is copied.
func ReduceScatterInit(p *mpi.Proc, op ReduceOp, counts []int) (*PersistentRS, error) {
	if !op.Valid() {
		return nil, errOp(op)
	}
	P := p.Size()
	h := &PersistentRS{persistentHandle: persistentHandle{p: p}, op: op, counts: append([]int(nil), counts...)}
	var err error
	if h.displs, h.total, err = checkRSLayout(p, counts); err != nil {
		return nil, err
	}
	p.Charge(float64(P))
	// Remainder ranks only take part in the fold transfers.
	if P > 1 && h.total > 0 && p.Rank() < pow2Below(P) {
		h.w = h.pin(h.total)
	}
	return h, nil
}

// checkRSLayout validates a reduce-scatter counts array, returning the
// packed displacements and total.
func checkRSLayout(p *mpi.Proc, counts []int) ([]int, int, error) {
	// The layout check of checkRS, against the minimal conforming
	// buffers; Start re-validates the real ones.
	P := p.Size()
	if len(counts) != P {
		return nil, 0, fmt.Errorf("coll: reduce-scatter counts must have length %d (got %d)", P, len(counts))
	}
	total := 0
	for i, c := range counts {
		if c < 0 {
			return nil, 0, fmt.Errorf("coll: negative count for rank %d", i)
		}
		if c > math.MaxInt-total {
			return nil, 0, fmt.Errorf("coll: segment for rank %d overflows the address space", i)
		}
		total += c
	}
	displs, _ := ContigDispls(counts)
	return displs, total, nil
}

// SendSpan returns the minimum send buffer length Start accepts.
func (h *PersistentRS) SendSpan() int { return h.total }

// Start performs one reduce-scatter with the frozen layout.
// Collective; byte-exact with ReduceScatterHalving.
func (h *PersistentRS) Start(send, recv buffer.Buf) error {
	p := h.p
	_, _, err := checkRS(p, h.op, send, h.counts, recv)
	if err := h.begin(err); err != nil {
		return err
	}
	if p.Size() == 1 {
		p.Memcpy(recv.Slice(0, h.counts[0]), send.Slice(0, h.counts[0]))
	} else if h.total > 0 {
		halvingReduceScatter(p, h.op, send, h.counts, h.displs, h.total, recv, h.w)
	}
	return nil
}

// PersistentAR is a reusable vector allreduce handle returned by
// AllreduceInit. Init fixes the algorithm — the machine model's
// doubling/rsag choice for the frozen (P, n) — and pins its scratch;
// the rsag choice composes a PersistentRS and a PersistentAG over the
// contiguous n/P chunking.
type PersistentAR struct {
	persistentHandle
	op        ReduceOp
	n         int
	algorithm string
	scratch   buffer.Buf // doubling
	// rsag composition (nil when P == 1 or n == 0).
	rs    *PersistentRS
	ag    *PersistentAG
	chunk buffer.Buf
}

// AllreduceInit builds a persistent vector allreduce handle for a
// frozen (op, n). Collective; every rank must pass the same op and n.
func AllreduceInit(p *mpi.Proc, op ReduceOp, n int) (*PersistentAR, error) {
	if !op.Valid() {
		return nil, errOp(op)
	}
	if n < 0 {
		return nil, fmt.Errorf("coll: negative allreduce vector size %d", n)
	}
	P := p.Size()
	h := &PersistentAR{persistentHandle: persistentHandle{p: p}, op: op, n: n}
	h.algorithm = SelectAllreduce(p.World().Model(), P, n).Algorithm
	if P == 1 || n == 0 {
		return h, nil
	}
	if h.algorithm == "rsag" {
		counts := arChunks(P, n)
		displs, _ := ContigDispls(counts)
		var err error
		if h.rs, err = ReduceScatterInit(p, op, counts); err != nil {
			return nil, err
		}
		if h.ag, err = AllgathervInit(p, counts, displs); err != nil {
			h.rs.Free()
			return nil, err
		}
		h.chunk = h.pin(counts[p.Rank()])
		return h, nil
	}
	if p.Rank() < pow2Below(P) { // remainder ranks only fold in and out
		h.scratch = h.pin(n)
	}
	return h, nil
}

// Algorithm returns the frozen algorithm name ("doubling" or "rsag").
func (h *PersistentAR) Algorithm() string { return h.algorithm }

// Free returns the handle's pinned buffers, and those of the composed
// rsag handles, to the rank's arena.
func (h *PersistentAR) Free() {
	if h.rs != nil {
		h.rs.Free()
		h.ag.Free()
	}
	h.persistentHandle.Free()
}

// Start performs one allreduce with the frozen (op, n). Collective;
// byte-exact with the algorithm AllreduceInit froze.
func (h *PersistentAR) Start(send, recv buffer.Buf) error {
	p := h.p
	n := h.n
	if err := h.begin(checkAR(p, h.op, send, recv, n)); err != nil {
		return err
	}
	if h.rs != nil {
		if err := h.rs.Start(send.Slice(0, n), h.chunk); err != nil {
			return err
		}
		return h.ag.Start(h.chunk, recv.Slice(0, n))
	}
	p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
	if p.Size() > 1 && n > 0 {
		doublingAllreduce(p, h.op, recv, n, h.scratch)
	}
	return nil
}
