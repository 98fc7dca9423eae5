package coll

import (
	"errors"
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// ErrHandleFreed marks a Start on a persistent handle after Free.
var ErrHandleFreed = errors.New("persistent handle used after Free")

// persistentHandle is the shell every persistent handle (Alltoallv and
// the three families) shares: the scratch pinned from the rank's arena
// and int scratch for the handle's lifetime, and the execution count.
type persistentHandle struct {
	p          *mpi.Proc
	pinned     []buffer.Buf
	pinnedInts []int
	executed   int
	released   bool
}

// Executions returns how many times the handle has started.
func (h *persistentHandle) Executions() int { return h.executed }

// Free returns the handle's pinned buffers to the rank's scratch arena;
// a later Start fails with ErrHandleFreed. Freeing is optional — an
// unfreed handle is garbage-collected — but long-lived ranks that build
// many handles should free them so the scratch memory recycles.
func (h *persistentHandle) Free() {
	if h.released {
		return
	}
	h.released = true
	h.p.FreeBuf(h.pinned...)
	h.p.FreeInts(h.pinnedInts)
	h.pinned, h.pinnedInts = nil, nil
}

// pin takes an n-byte buffer from the rank's arena for the handle's
// lifetime.
func (h *persistentHandle) pin(n int) buffer.Buf {
	b := h.p.AllocBuf(n)
	h.pinned = append(h.pinned, b)
	return b
}

// begin admits one Start whose arguments checked as check: a freed
// handle fails first, then a bad argument; otherwise the execution
// counts.
func (h *persistentHandle) begin(check error) error {
	if h.released {
		return fmt.Errorf("coll: %w", ErrHandleFreed)
	}
	if check != nil {
		return check
	}
	h.executed++
	return nil
}

// Persistent non-uniform all-to-all (the MPI_Alltoallv_init analogue),
// built on the radix-r two-phase engine. Initialization keeps what a
// repeated exchange with fixed counts can reuse: the layout, the
// rotation index, and the working and metadata buffers, pinned from the
// rank's pooled scratch arena. The first Start runs the two-phase
// exchange and records the one thing that depends on the data, the
// incoming block sizes; every later Start runs the same step loop with
// the sizes read from that record, so it skips the metadata phase
// entirely: half the messages per sub-step. The walk and each block's
// source are functions of the layout, recomputed per Start at no
// virtual cost.

// maxAutoRadix bounds the radix AlltoallvInitAuto's model search
// considers.
const maxAutoRadix = 16

// PersistentV is a reusable non-uniform all-to-all handle returned by
// AlltoallvInit. It is per-rank state bound to the Proc that built it;
// Start is a collective over the communicator the handle was built on.
type PersistentV struct {
	persistentHandle
	scounts []int
	sdispls []int
	rcounts []int
	rdispls []int

	// st is the exchange's working state; its buffers are the handle's
	// pinned scratch. The first Start exchanges the block sizes and
	// records the incoming ones in st.rec; later Starts read them from
	// there (st.sizes).
	st twoPhaseState
}

// checkInitLayout validates the count/displacement arrays of a
// persistent init against the communicator shape (the buffers do not
// exist yet; Start re-validates them against the layout).
func checkInitLayout(p *mpi.Proc, scounts, sdispls, rcounts, rdispls []int) error {
	P := p.Size()
	if len(scounts) != P || len(sdispls) != P || len(rcounts) != P || len(rdispls) != P {
		return fmt.Errorf("coll: init: count/displacement arrays must have length %d (got %d/%d/%d/%d)",
			P, len(scounts), len(sdispls), len(rcounts), len(rdispls))
	}
	for i := 0; i < P; i++ {
		if scounts[i] < 0 || rcounts[i] < 0 || sdispls[i] < 0 || rdispls[i] < 0 {
			return fmt.Errorf("coll: init: negative count or displacement for rank %d", i)
		}
	}
	if scounts[p.Rank()] != rcounts[p.Rank()] {
		return fmt.Errorf("coll: init: self block size mismatch: %d vs %d", scounts[p.Rank()], rcounts[p.Rank()])
	}
	return nil
}

// AlltoallvInit builds a persistent radix-r handle for the given
// layout. It is a collective: all ranks must initialize together, and
// every rank must pass the same radix. The count and displacement
// slices are copied, so later caller mutation does not affect the
// handle.
func AlltoallvInit(p *mpi.Proc, r int, scounts, sdispls, rcounts, rdispls []int) (*PersistentV, error) {
	if r < 2 {
		return nil, errRadix(r)
	}
	if err := checkInitLayout(p, scounts, sdispls, rcounts, rdispls); err != nil {
		return nil, err
	}
	n := p.AllreduceMaxInt(maxInts(scounts))
	return alltoallvInitWithMax(p, r, n, scounts, sdispls, rcounts, rdispls), nil
}

// AlltoallvInitAuto builds a persistent handle whose radix is chosen
// for the layout: the calibration table's winner where it covers the
// call's (P, maxN) cell and names a two-phase variant, else the machine
// model's best radix in [2, 16] for the call's mean block size. The
// fused allreduce that derives the global shape doubles as the
// max-block reduction, so auto selection costs no extra rounds. t may
// be nil (pure analytic choice).
func AlltoallvInitAuto(p *mpi.Proc, t *Table, scounts, sdispls, rcounts, rdispls []int) (*PersistentV, error) {
	if err := checkInitLayout(p, scounts, sdispls, rcounts, rdispls); err != nil {
		return nil, err
	}
	var local int64
	for _, c := range scounts {
		local += int64(c)
	}
	P := p.Size()
	maxN, total := p.AllreduceMaxIntSumInt64(maxInts(scounts), local)
	avg := float64(total) / float64(P) / float64(P)
	r := persistentRadix(p.World().Model(), t, P, maxN, avg)
	return alltoallvInitWithMax(p, r, maxN, scounts, sdispls, rcounts, rdispls), nil
}

// persistentRadix picks the radix for an auto-initialized persistent
// handle. It is a pure function of globally agreed values, so all ranks
// agree.
func persistentRadix(m machine.Model, t *Table, P, maxN int, avg float64) int {
	if name, ok := t.Lookup(P, maxN); ok {
		if r, isRadix := RadixOfName(name); isRadix {
			return r
		}
	}
	return m.BestRadix(P, maxAutoRadix, avg)
}

func alltoallvInitWithMax(p *mpi.Proc, r, n int, scounts, sdispls, rcounts, rdispls []int) *PersistentV {
	P := p.Size()
	h := &PersistentV{
		persistentHandle: persistentHandle{p: p},
		scounts:          append([]int(nil), scounts...),
		sdispls:          append([]int(nil), sdispls...),
		rcounts:          append([]int(nil), rcounts...),
		rdispls:          append([]int(nil), rdispls...),
		st:               twoPhaseState{r: r, n: n},
	}
	if P == 1 || n == 0 {
		p.Charge(float64(P)) // the rotation index, priced as in the exchange
		return h             // nothing travels; Start degenerates to the self copy
	}
	h.st.initV(p, r, n, scounts)
	h.pinned = append(h.pinned, h.st.w, h.st.meta, h.st.rmeta)
	h.pinnedInts = h.st.ints
	// The record holds one size per block the walk moves, so recording
	// never grows it.
	blocks := 0
	for it := newRadixWalk(P, p.Rank(), r, h.st.rel, h.st.slot); it.next(); {
		blocks += len(it.st.slot)
	}
	h.st.rec = make([]int32, 0, blocks)
	return h
}

// Radix returns the handle's two-phase radix.
func (h *PersistentV) Radix() int { return h.st.r }

// MaxBlock returns the global maximum block size in bytes.
func (h *PersistentV) MaxBlock() int { return h.st.n }

// SendSpan and RecvSpan return the minimum buffer lengths Start
// accepts (the furthest extent of any declared block).
func (h *PersistentV) SendSpan() int { return span(h.scounts, h.sdispls) }

// RecvSpan is the receive-side counterpart of SendSpan.
func (h *PersistentV) RecvSpan() int { return span(h.rcounts, h.rdispls) }

// span returns the furthest extent of any block of a layout.
func span(counts, displs []int) int {
	m := 0
	for i, c := range counts {
		if end := displs[i] + c; end > m {
			m = end
		}
	}
	return m
}

// Start performs one exchange with the frozen layout: send and recv
// must satisfy the counts and displacements given at init. It is a
// collective; every initializing rank must start the same number of
// times. The first Start runs the full two-phase exchange and records
// the incoming block sizes; every later Start runs it with the recorded
// sizes and no metadata phase.
func (h *PersistentV) Start(send, recv buffer.Buf) error {
	p := h.p
	P := p.Size()
	rank := p.Rank()
	if err := h.begin(checkV(p, send, h.scounts, h.sdispls, recv, h.rcounts, h.rdispls)); err != nil {
		return err
	}
	p.Memcpy(recv.Slice(h.rdispls[rank], h.rcounts[rank]), send.Slice(h.sdispls[rank], h.scounts[rank]))
	if P == 1 || h.st.n == 0 {
		return nil
	}
	defer p.ClearStep()
	// Every Start walks from the layout, and a recording one starts an
	// empty record, so a Start that failed part-way leaves nothing
	// behind.
	st := &h.st
	st.reset(h.scounts)
	if st.sizes == sizesExchanged {
		st.rec = st.rec[:0]
	}
	if err := st.exchange(p, send, h.sdispls, recv, h.rcounts, h.rdispls); err != nil {
		return err
	}
	st.sizes = sizesRecorded
	return nil
}
