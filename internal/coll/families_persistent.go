package coll

import (
	"fmt"
	"math"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Persistent handles for the collective families (the MPI_*_init
// analogues), built on the same frozen-schedule engine as PersistentV.
// Because every family's layout is globally known at init, there is no
// metadata to record on a first execution: init freezes the complete
// plan — schedule steps, per-step byte spans, and pinned staging from
// the rank's arena — and every Start replays it, byte-exact with the
// immediate algorithm (same partners, tags, and message sizes).

// PersistentAG is a reusable allgatherv handle returned by
// AllgathervInit. It replays the frozen dissemination schedule.
type PersistentAG struct {
	p       *mpi.Proc
	sched   *schedule
	rcounts []int
	rdispls []int
	woff    []int
	total   int
	w       buffer.Buf
	// Per-step frozen byte spans: the outgoing prefix length, and the
	// received extension's offset and length in the work buffer.
	outB, inOff, inB []int

	executed int
	released bool
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
	rank := p.Rank()
	h := &PersistentAG{
		p:       p,
		rcounts: append([]int(nil), rcounts...),
		rdispls: append([]int(nil), rdispls...),
	}
	h.woff, h.total = relOffsets(P, rank, rcounts)
	p.Charge(float64(P))
	if P == 1 || h.total == 0 {
		return h, nil
	}
	h.sched = buildSchedule(P, rank, dissemGen(P, rank))
	h.w = p.AllocBuf(h.total)
	h.outB = make([]int, len(h.sched.steps))
	h.inOff = make([]int, len(h.sched.steps))
	h.inB = make([]int, len(h.sched.steps))
	for si := range h.sched.steps {
		st := &h.sched.steps[si]
		cnt := len(st.rel)
		first := st.rel[0]
		h.outB[si] = h.woff[cnt]
		h.inOff[si] = h.woff[first]
		h.inB[si] = h.woff[first+cnt] - h.woff[first]
	}
	return h, nil
}

// Executions returns how many times the handle has started.
func (h *PersistentAG) Executions() int { return h.executed }

// RecvSpan returns the minimum receive buffer length Start accepts.
func (h *PersistentAG) RecvSpan() int { return span(h.rcounts, h.rdispls) }

// Free returns the handle's pinned work buffer to the rank's arena.
func (h *PersistentAG) Free() {
	if h.released {
		return
	}
	h.released = true
	h.p.FreeBuf(h.w)
	h.w = buffer.Buf{}
}

// Start performs one allgatherv with the frozen layout: send must hold
// this rank's rcounts[rank]-byte contribution. Collective; byte-exact
// with AllgathervBruck.
func (h *PersistentAG) Start(send, recv buffer.Buf) error {
	if h.released {
		return fmt.Errorf("coll: %w", ErrHandleFreed)
	}
	p := h.p
	P := p.Size()
	rank := p.Rank()
	scount := h.rcounts[rank]
	if err := checkAG(p, send, scount, recv, h.rcounts, h.rdispls); err != nil {
		return err
	}
	h.executed++
	if P == 1 {
		p.Memcpy(recv.Slice(h.rdispls[0], h.rcounts[0]), send.Slice(0, scount))
		return nil
	}
	if h.total == 0 {
		return nil
	}
	p.Memcpy(h.w.Slice(0, scount), send.Slice(0, scount))
	done := p.Phase(PhaseComm)
	for si := range h.sched.steps {
		st := &h.sched.steps[si]
		p.SetStep(si)
		tag := tagAllgatherv + si
		p.SendRecv(st.dst, tag, h.w.Slice(0, h.outB[si]), st.src, tag, h.w.Slice(h.inOff[si], h.inB[si]))
	}
	p.ClearStep()
	done()
	done = p.Phase(PhaseFinalRotation)
	defer done()
	for j := 0; j < P; j++ {
		g := (rank + j) % P
		p.Memcpy(recv.Slice(h.rdispls[g], h.rcounts[g]), h.w.Slice(h.woff[j], h.rcounts[g]))
	}
	return nil
}

// PersistentRS is a reusable reduce-scatter handle returned by
// ReduceScatterInit. It replays the frozen recursive-halving schedule.
type PersistentRS struct {
	p      *mpi.Proc
	op     ReduceOp
	sched  *schedule // nil for remainder ranks
	counts []int
	displs []int
	total  int
	p2     int
	rem    int
	w      buffer.Buf
	stage  buffer.Buf
	rstage buffer.Buf
	// Per-step frozen sets and spans: the kept segment ids, and the
	// outgoing/incoming packed byte counts (sent ids are the schedule
	// steps' rel lists).
	kept      [][]int
	outB, inB []int

	executed int
	released bool
}

// ReduceScatterInit builds a persistent reduce-scatter handle for a
// frozen (op, counts). Collective; the counts slice is copied.
func ReduceScatterInit(p *mpi.Proc, op ReduceOp, counts []int) (*PersistentRS, error) {
	if !op.Valid() {
		return nil, errOp(op)
	}
	P := p.Size()
	rank := p.Rank()
	h := &PersistentRS{p: p, op: op, counts: append([]int(nil), counts...)}
	var err error
	if h.displs, h.total, err = checkRSLayout(p, counts); err != nil {
		return nil, err
	}
	p.Charge(float64(P))
	if P == 1 || h.total == 0 {
		return h, nil
	}
	h.p2 = pow2Below(P)
	h.rem = P - h.p2
	if rank >= h.p2 {
		return h, nil // remainder rank: only the fold transfers
	}
	h.sched = buildSchedule(P, rank, halvingGen(rank, h.p2, h.rem))
	h.w = p.AllocBuf(h.total)
	h.stage = p.AllocBuf(h.total)
	h.rstage = p.AllocBuf(h.total)
	steps := len(h.sched.steps)
	h.kept = make([][]int, steps)
	h.outB = make([]int, steps)
	h.inB = make([]int, steps)
	bytesOf := func(ids []int) int {
		n := 0
		for _, s := range ids {
			n += counts[s]
		}
		return n
	}
	for si := range h.sched.steps {
		st := &h.sched.steps[si]
		half := st.step
		myLo := rank &^ (2*half - 1)
		if rank&half != 0 {
			myLo += half
		}
		h.kept[si] = halvingSegs(nil, myLo, half, h.p2, h.rem)
		h.outB[si] = bytesOf(st.rel)
		h.inB[si] = bytesOf(h.kept[si])
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

// Executions returns how many times the handle has started.
func (h *PersistentRS) Executions() int { return h.executed }

// SendSpan returns the minimum send buffer length Start accepts.
func (h *PersistentRS) SendSpan() int { return h.total }

// Free returns the handle's pinned buffers to the rank's arena.
func (h *PersistentRS) Free() {
	if h.released {
		return
	}
	h.released = true
	h.p.FreeBuf(h.w, h.stage, h.rstage)
	h.w, h.stage, h.rstage = buffer.Buf{}, buffer.Buf{}, buffer.Buf{}
}

// Start performs one reduce-scatter with the frozen layout.
// Collective; byte-exact with ReduceScatterHalving.
func (h *PersistentRS) Start(send, recv buffer.Buf) error {
	if h.released {
		return fmt.Errorf("coll: %w", ErrHandleFreed)
	}
	p := h.p
	P := p.Size()
	rank := p.Rank()
	if _, _, err := checkRS(p, h.op, send, h.counts, recv); err != nil {
		return err
	}
	h.executed++
	if P == 1 {
		p.Memcpy(recv.Slice(0, h.counts[0]), send.Slice(0, h.counts[0]))
		return nil
	}
	if h.total == 0 {
		return nil
	}
	if rank >= h.p2 {
		p.Send(rank-h.p2, rsFoldIn, send.Slice(0, h.total))
		p.Recv(rank-h.p2, rsFoldOut, recv.Slice(0, h.counts[rank]))
		return nil
	}
	p.Memcpy(h.w.Slice(0, h.total), send.Slice(0, h.total))
	if rank < h.rem {
		p.Recv(rank+h.p2, rsFoldIn, h.rstage.Slice(0, h.total))
		combineBuf(p, h.op, h.w.Slice(0, h.total), h.rstage.Slice(0, h.total))
	}
	done := p.Phase(PhaseComm)
	for si := range h.sched.steps {
		st := &h.sched.steps[si]
		p.SetStep(si)
		off := 0
		for _, s := range st.rel {
			p.Memcpy(h.stage.Slice(off, h.counts[s]), h.w.Slice(h.displs[s], h.counts[s]))
			off += h.counts[s]
		}
		tag := tagRedScat + si
		p.SendRecv(st.dst, tag, h.stage.Slice(0, h.outB[si]), st.src, tag, h.rstage.Slice(0, h.inB[si]))
		off = 0
		for _, s := range h.kept[si] {
			combineBuf(p, h.op, h.w.Slice(h.displs[s], h.counts[s]), h.rstage.Slice(off, h.counts[s]))
			off += h.counts[s]
		}
	}
	p.ClearStep()
	done()
	p.Memcpy(recv.Slice(0, h.counts[rank]), h.w.Slice(h.displs[rank], h.counts[rank]))
	if rank < h.rem {
		p.Send(rank+h.p2, rsFoldOut, h.w.Slice(h.displs[rank+h.p2], h.counts[rank+h.p2]))
	}
	return nil
}

// PersistentAR is a reusable vector allreduce handle returned by
// AllreduceInit. Init fixes the algorithm — the machine model's
// doubling/rsag choice for the frozen (P, n) — and pins its scratch;
// the rsag choice composes a PersistentRS and a PersistentAG over the
// contiguous n/P chunking.
type PersistentAR struct {
	p         *mpi.Proc
	op        ReduceOp
	n         int
	algorithm string
	sched     *schedule // doubling core (nil for rsag or remainder ranks)
	p2, rem   int
	scratch   buffer.Buf
	// rsag composition.
	rs     *PersistentRS
	ag     *PersistentAG
	chunk  buffer.Buf
	counts []int
	displs []int

	executed int
	released bool
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
	rank := p.Rank()
	h := &PersistentAR{p: p, op: op, n: n}
	sel := SelectAllreduce(p.World().Model(), P, n)
	h.algorithm = sel.Algorithm
	if P == 1 || n == 0 {
		return h, nil
	}
	if h.algorithm == "rsag" {
		h.counts = arChunks(P, n)
		h.displs, _ = ContigDispls(h.counts)
		var err error
		if h.rs, err = ReduceScatterInit(p, op, h.counts); err != nil {
			return nil, err
		}
		if h.ag, err = AllgathervInit(p, h.counts, h.displs); err != nil {
			h.rs.Free()
			return nil, err
		}
		h.chunk = p.AllocBuf(h.counts[rank])
		return h, nil
	}
	h.p2 = pow2Below(P)
	h.rem = P - h.p2
	h.scratch = p.AllocBuf(n)
	if rank < h.p2 {
		h.sched = buildSchedule(P, rank, doublingGen(rank, h.p2, 0))
	}
	return h, nil
}

// Algorithm returns the frozen algorithm name ("doubling" or "rsag").
func (h *PersistentAR) Algorithm() string { return h.algorithm }

// Executions returns how many times the handle has started.
func (h *PersistentAR) Executions() int { return h.executed }

// Free returns the handle's pinned buffers to the rank's arena.
func (h *PersistentAR) Free() {
	if h.released {
		return
	}
	h.released = true
	if h.rs != nil {
		h.rs.Free()
	}
	if h.ag != nil {
		h.ag.Free()
	}
	h.p.FreeBuf(h.scratch, h.chunk)
	h.scratch, h.chunk = buffer.Buf{}, buffer.Buf{}
}

// Start performs one allreduce with the frozen (op, n). Collective;
// byte-exact with the algorithm AllreduceInit froze.
func (h *PersistentAR) Start(send, recv buffer.Buf) error {
	if h.released {
		return fmt.Errorf("coll: %w", ErrHandleFreed)
	}
	p := h.p
	P := p.Size()
	rank := p.Rank()
	if err := checkAR(p, h.op, send, recv, h.n); err != nil {
		return err
	}
	h.executed++
	n := h.n
	if P == 1 || n == 0 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	if h.algorithm == "rsag" {
		if err := h.rs.Start(send.Slice(0, n), h.chunk); err != nil {
			return err
		}
		return h.ag.Start(h.chunk, recv.Slice(0, n))
	}
	p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
	if rank >= h.p2 {
		p.Send(rank-h.p2, arFoldIn, recv.Slice(0, n))
		p.Recv(rank-h.p2, arFoldOut, recv.Slice(0, n))
		return nil
	}
	if rank < h.rem {
		p.Recv(rank+h.p2, arFoldIn, h.scratch.Slice(0, n))
		combineBuf(p, h.op, recv.Slice(0, n), h.scratch.Slice(0, n))
	}
	done := p.Phase(PhaseComm)
	for si := range h.sched.steps {
		st := &h.sched.steps[si]
		p.SetStep(si)
		tag := tagAllreduce + si
		p.SendRecv(st.dst, tag, recv.Slice(0, n), st.src, tag, h.scratch.Slice(0, n))
		combineBuf(p, h.op, recv.Slice(0, n), h.scratch.Slice(0, n))
	}
	p.ClearStep()
	done()
	if rank < h.rem {
		p.Send(rank+h.p2, arFoldOut, recv.Slice(0, n))
	}
	return nil
}
