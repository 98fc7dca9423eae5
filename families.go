package bruckv

import (
	"fmt"
	"math"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
)

// The collective families beyond all-to-all: Allgatherv, ReduceScatter,
// and Allreduce, all walking the same log-P step schedules as the Bruck
// all-to-all variants. Each family offers a blocking call, a
// With-variant pinning the algorithm, a nonblocking I-form returning an
// Op (completable alongside IAlltoallv Ops via Waitall), and a
// persistent Init/Start handle that pays the setup cost and pins the
// scratch once, then runs the immediate algorithm on every Start.
// Unlike Alltoallv, every family's layout is part of the call contract
// on all ranks — counts are globally known — so no metadata ever
// travels and the Auto selectors decide locally from the machine model
// at zero communication cost.

// ReduceOp is the element-wise reduction operator of ReduceScatter and
// Allreduce. Operators work bytewise — associative and commutative, so
// every algorithm of a family produces bit-identical results; see the
// internal package's ReduceOp for the modeling rationale.
type ReduceOp = coll.ReduceOp

const (
	// OpSum adds bytes modulo 256.
	OpSum = coll.OpSum
	// OpMax keeps the larger byte.
	OpMax = coll.OpMax
	// OpMin keeps the smaller byte.
	OpMin = coll.OpMin
	// OpXor is the bitwise exclusive or.
	OpXor = coll.OpXor
)

// AllgathervAlgorithm selects the Allgatherv implementation.
type AllgathervAlgorithm int

const (
	// AGAuto picks per call between the family members from the machine
	// model's estimates at the call's globally known layout. The
	// decision is local (the layout is part of the call contract, so no
	// reduction is needed) and appears in traces as a phase named
	// "auto:<algorithm> pred=<ns> analytic".
	AGAuto AllgathervAlgorithm = iota
	// AGBruck is the Bruck-style dissemination allgatherv: ceil(log2 P)
	// steps moving contiguous work-buffer prefixes, plus a final
	// scatter.
	AGBruck
	// AGDoubling is recursive doubling: blocks land directly at their
	// final displacements, with per-step packing and a remainder
	// fold-in/out for non-power-of-two P.
	AGDoubling
	// AGLinear posts one send and one receive per peer (linear in P).
	AGLinear
)

var agEnum = enumNames[AllgathervAlgorithm]{
	what: "allgatherv algorithm", goType: "AllgathervAlgorithm",
	names: map[AllgathervAlgorithm]string{
		AGAuto: "auto", AGBruck: "bruck", AGDoubling: "doubling", AGLinear: "linear",
	},
}

// String returns the algorithm's registry name.
func (a AllgathervAlgorithm) String() string { return agEnum.format(a) }

// ParseAllgathervAlgorithm resolves a name (as printed by String) to an
// AllgathervAlgorithm. An unknown name returns an error wrapping
// ErrInvalidAlgorithm.
func ParseAllgathervAlgorithm(s string) (AllgathervAlgorithm, error) {
	return agEnum.parse(s)
}

// AllgathervAlgorithmList returns every Allgatherv algorithm, in enum
// order.
func AllgathervAlgorithmList() []AllgathervAlgorithm { return agEnum.list() }

func (a AllgathervAlgorithm) impl() (coll.Allgatherv, error) {
	name, ok := agEnum.names[a]
	if !ok {
		return nil, fmt.Errorf("bruckv: allgatherv algorithm %d: %w", int(a), ErrInvalidAlgorithm)
	}
	return agTable[name], nil
}

// ReduceScatterAlgorithm selects the ReduceScatter implementation.
type ReduceScatterAlgorithm int

const (
	// RSAuto picks per call between halving and direct from the machine
	// model's estimates (local decision, like AGAuto).
	RSAuto ReduceScatterAlgorithm = iota
	// RSHalving is recursive halving: log2 P exchanges, each sending
	// the half of the vector the partner's sub-group is responsible for
	// and folding the received half in, so every step halves the live
	// data.
	RSHalving
	// RSDirect sends segment i straight to rank i and folds the P-1
	// arriving contributions (linear in P).
	RSDirect
)

var rsEnum = enumNames[ReduceScatterAlgorithm]{
	what: "reduce-scatter algorithm", goType: "ReduceScatterAlgorithm",
	names: map[ReduceScatterAlgorithm]string{
		RSAuto: "auto", RSHalving: "halving", RSDirect: "direct",
	},
}

// String returns the algorithm's registry name.
func (a ReduceScatterAlgorithm) String() string { return rsEnum.format(a) }

// ParseReduceScatterAlgorithm resolves a name (as printed by String) to
// a ReduceScatterAlgorithm. An unknown name returns an error wrapping
// ErrInvalidAlgorithm.
func ParseReduceScatterAlgorithm(s string) (ReduceScatterAlgorithm, error) {
	return rsEnum.parse(s)
}

// ReduceScatterAlgorithmList returns every ReduceScatter algorithm, in
// enum order.
func ReduceScatterAlgorithmList() []ReduceScatterAlgorithm { return rsEnum.list() }

func (a ReduceScatterAlgorithm) impl() (coll.ReduceScatter, error) {
	name, ok := rsEnum.names[a]
	if !ok {
		return nil, fmt.Errorf("bruckv: reduce-scatter algorithm %d: %w", int(a), ErrInvalidAlgorithm)
	}
	return rsTable[name], nil
}

// AllreduceAlgorithm selects the Allreduce implementation.
type AllreduceAlgorithm int

const (
	// ARAuto picks per call between doubling and rsag from the machine
	// model's estimates — the latency/bandwidth crossover (local
	// decision, like AGAuto).
	ARAuto AllreduceAlgorithm = iota
	// ARDoubling is recursive doubling: every exchange moves the whole
	// vector, minimal latency term — wins for small vectors.
	ARDoubling
	// ARRSAG is the reduce-scatter + allgather composition
	// (Rabenseifner): each phase moves ~n bytes per rank in total,
	// about half doubling's bandwidth term — wins for large vectors.
	ARRSAG
)

var arEnum = enumNames[AllreduceAlgorithm]{
	what: "allreduce algorithm", goType: "AllreduceAlgorithm",
	names: map[AllreduceAlgorithm]string{
		ARAuto: "auto", ARDoubling: "doubling", ARRSAG: "rsag",
	},
}

// String returns the algorithm's registry name.
func (a AllreduceAlgorithm) String() string { return arEnum.format(a) }

// ParseAllreduceAlgorithm resolves a name (as printed by String) to an
// AllreduceAlgorithm. An unknown name returns an error wrapping
// ErrInvalidAlgorithm.
func ParseAllreduceAlgorithm(s string) (AllreduceAlgorithm, error) {
	return arEnum.parse(s)
}

// AllreduceAlgorithmList returns every Allreduce algorithm, in enum
// order.
func AllreduceAlgorithmList() []AllreduceAlgorithm { return arEnum.list() }

func (a AllreduceAlgorithm) impl() (coll.AllreduceV, error) {
	name, ok := arEnum.names[a]
	if !ok {
		return nil, fmt.Errorf("bruckv: allreduce algorithm %d: %w", int(a), ErrInvalidAlgorithm)
	}
	return arTable[name], nil
}

// validateCounts rejects a malformed counts-only layout (the packed
// contiguous layouts of ReduceScatter) and returns its total.
func validateCounts(P int, counts []int, what string) (int, error) {
	if len(counts) != P {
		return 0, fmt.Errorf("bruckv: %s counts must have length %d (got %d): %w",
			what, P, len(counts), ErrInvalidLayout)
	}
	total := 0
	for i, cnt := range counts {
		if cnt < 0 {
			return 0, fmt.Errorf("bruckv: negative %s count %d for rank %d: %w", what, cnt, i, ErrInvalidLayout)
		}
		if cnt > math.MaxInt-total {
			return 0, fmt.Errorf("bruckv: %s layout overflows the address space at rank %d: %w",
				what, i, ErrInvalidLayout)
		}
		total += cnt
	}
	return total, nil
}

// agArgs validates an Allgatherv call and wraps its buffers.
func (c *Comm) agArgs(send []byte, scount int, recv []byte, rcounts, rdispls []int) (sb, rb buffer.Buf, err error) {
	if scount < 0 {
		return sb, rb, fmt.Errorf("bruckv: negative contribution size %d: %w", scount, ErrInvalidLayout)
	}
	span, err := validateLayout(c.Size(), rcounts, rdispls, "recv")
	if err != nil {
		return sb, rb, err
	}
	if sb, err = c.buf(send, scount); err != nil {
		return sb, rb, err
	}
	rb, err = c.buf(recv, span)
	return sb, rb, err
}

// Allgatherv gathers every rank's contribution on every rank
// (MPI_Allgatherv): send holds this rank's scount-byte block; after the
// call, block i of recv (rcounts[i] bytes at rdispls[i]) holds rank
// i's contribution on all ranks. scount must equal rcounts[Rank()],
// and all ranks must pass identical rcounts/rdispls. The algorithm is
// model-selected (AGAuto).
func (c *Comm) Allgatherv(send []byte, scount int, recv []byte, rcounts, rdispls []int) error {
	return c.AllgathervWith(AGAuto, send, scount, recv, rcounts, rdispls)
}

// AllgathervWith is Allgatherv with an explicit algorithm choice.
func (c *Comm) AllgathervWith(alg AllgathervAlgorithm, send []byte, scount int,
	recv []byte, rcounts, rdispls []int) error {
	impl, err := alg.impl()
	if err != nil {
		return err
	}
	sb, rb, err := c.agArgs(send, scount, recv, rcounts, rdispls)
	if err != nil {
		return err
	}
	return impl(c.p, sb, scount, rb, rcounts, rdispls)
}

// IAllgatherv begins a nonblocking Allgatherv with the model-selected
// algorithm, under the same overlap and buffer-ownership rules as
// IAlltoallv: arguments are validated eagerly, the count/displacement
// slices are copied, the buffers belong to the collective until Wait,
// and compute charged before Wait overlaps the exchange.
func (c *Comm) IAllgatherv(send []byte, scount int, recv []byte, rcounts, rdispls []int) (*Op, error) {
	return c.IAllgathervWith(AGAuto, send, scount, recv, rcounts, rdispls)
}

// IAllgathervWith is IAllgatherv with an explicit algorithm choice.
func (c *Comm) IAllgathervWith(alg AllgathervAlgorithm, send []byte, scount int,
	recv []byte, rcounts, rdispls []int) (*Op, error) {
	impl, err := alg.impl()
	if err != nil {
		return nil, err
	}
	sb, rb, err := c.agArgs(send, scount, recv, rcounts, rdispls)
	if err != nil {
		return nil, err
	}
	req, err := coll.IAllgatherv(c.p, impl, sb, scount, rb, rcounts, rdispls)
	if err != nil {
		return nil, err
	}
	return &Op{req: req}, nil
}

// PersistentAllgatherv is a reusable Allgatherv handle with a frozen
// layout, returned by AllgathervInit: init validates the layout, pays
// the setup cost and pins the work buffer once; every Start runs the
// dissemination allgatherv on it, byte-exact with
// AllgathervWith(AGBruck, ...).
type PersistentAllgatherv struct {
	c      *Comm
	h      *coll.PersistentAG
	scount int
}

// AllgathervInit builds a persistent Allgatherv handle for the given
// frozen layout. It is a collective: all ranks must initialize
// together with identical arrays (the slices are copied).
func (c *Comm) AllgathervInit(rcounts, rdispls []int) (*PersistentAllgatherv, error) {
	if _, err := validateLayout(c.Size(), rcounts, rdispls, "recv"); err != nil {
		return nil, err
	}
	h, err := coll.AllgathervInit(c.p, rcounts, rdispls)
	if err != nil {
		return nil, err
	}
	return &PersistentAllgatherv{c: c, h: h, scount: rcounts[c.Rank()]}, nil
}

// Start performs one allgatherv with the frozen layout: send must hold
// this rank's rcounts[Rank()]-byte contribution (nil allowed in
// phantom worlds). Collective; every initializing rank must start the
// same number of times.
func (h *PersistentAllgatherv) Start(send, recv []byte) error {
	sb, err := h.c.buf(send, h.scount)
	if err != nil {
		return err
	}
	rb, err := h.c.buf(recv, h.h.RecvSpan())
	if err != nil {
		return err
	}
	return h.h.Start(sb, rb)
}

// Executions returns how many times the handle has started.
func (h *PersistentAllgatherv) Executions() int { return h.h.Executions() }

// Free returns the handle's pinned staging to the rank's scratch
// arena; a later Start fails with ErrHandleFreed.
func (h *PersistentAllgatherv) Free() { h.h.Free() }

// rsArgs validates a ReduceScatter call and wraps its buffers.
func (c *Comm) rsArgs(send []byte, counts []int, recv []byte) (sb, rb buffer.Buf, err error) {
	total, err := validateCounts(c.Size(), counts, "reduce-scatter")
	if err != nil {
		return sb, rb, err
	}
	if sb, err = c.buf(send, total); err != nil {
		return sb, rb, err
	}
	rb, err = c.buf(recv, counts[c.Rank()])
	return sb, rb, err
}

// ReduceScatter reduces and scatters (MPI_Reduce_scatter): send holds P
// segments packed contiguously in rank order (segment i is counts[i]
// bytes); recv receives the counts[Rank()]-byte element-wise
// op-reduction of segment Rank() over all P contributions. All ranks
// must pass identical counts and the same op. The algorithm is
// model-selected (RSAuto).
func (c *Comm) ReduceScatter(op ReduceOp, send []byte, counts []int, recv []byte) error {
	return c.ReduceScatterWith(RSAuto, op, send, counts, recv)
}

// ReduceScatterWith is ReduceScatter with an explicit algorithm choice.
func (c *Comm) ReduceScatterWith(alg ReduceScatterAlgorithm, op ReduceOp,
	send []byte, counts []int, recv []byte) error {
	impl, err := alg.impl()
	if err != nil {
		return err
	}
	sb, rb, err := c.rsArgs(send, counts, recv)
	if err != nil {
		return err
	}
	return impl(c.p, op, sb, counts, rb)
}

// IReduceScatter begins a nonblocking ReduceScatter with the
// model-selected algorithm (overlap and ownership rules as
// IAlltoallv; the counts slice is copied eagerly).
func (c *Comm) IReduceScatter(op ReduceOp, send []byte, counts []int, recv []byte) (*Op, error) {
	return c.IReduceScatterWith(RSAuto, op, send, counts, recv)
}

// IReduceScatterWith is IReduceScatter with an explicit algorithm
// choice.
func (c *Comm) IReduceScatterWith(alg ReduceScatterAlgorithm, op ReduceOp,
	send []byte, counts []int, recv []byte) (*Op, error) {
	impl, err := alg.impl()
	if err != nil {
		return nil, err
	}
	sb, rb, err := c.rsArgs(send, counts, recv)
	if err != nil {
		return nil, err
	}
	req, err := coll.IReduceScatter(c.p, impl, op, sb, counts, rb)
	if err != nil {
		return nil, err
	}
	return &Op{req: req}, nil
}

// PersistentReduceScatter is a reusable ReduceScatter handle with a
// frozen (op, counts), returned by ReduceScatterInit: init validates
// the layout, pays the setup cost and pins the staging once; every
// Start runs recursive halving on it, byte-exact with
// ReduceScatterWith(RSHalving, ...).
type PersistentReduceScatter struct {
	c    *Comm
	h    *coll.PersistentRS
	mine int
}

// ReduceScatterInit builds a persistent ReduceScatter handle for the
// given frozen (op, counts). Collective; the counts slice is copied.
func (c *Comm) ReduceScatterInit(op ReduceOp, counts []int) (*PersistentReduceScatter, error) {
	if _, err := validateCounts(c.Size(), counts, "reduce-scatter"); err != nil {
		return nil, err
	}
	h, err := coll.ReduceScatterInit(c.p, op, counts)
	if err != nil {
		return nil, err
	}
	return &PersistentReduceScatter{c: c, h: h, mine: counts[c.Rank()]}, nil
}

// Start performs one reduce-scatter with the frozen layout (nil
// buffers allowed in phantom worlds). Collective; every initializing
// rank must start the same number of times.
func (h *PersistentReduceScatter) Start(send, recv []byte) error {
	sb, err := h.c.buf(send, h.h.SendSpan())
	if err != nil {
		return err
	}
	rb, err := h.c.buf(recv, h.mine)
	if err != nil {
		return err
	}
	return h.h.Start(sb, rb)
}

// Executions returns how many times the handle has started.
func (h *PersistentReduceScatter) Executions() int { return h.h.Executions() }

// Free returns the handle's pinned staging to the rank's scratch
// arena; a later Start fails with ErrHandleFreed.
func (h *PersistentReduceScatter) Free() { h.h.Free() }

// arArgs validates an Allreduce call and wraps its buffers.
func (c *Comm) arArgs(send, recv []byte, n int) (sb, rb buffer.Buf, err error) {
	if n < 0 {
		return sb, rb, fmt.Errorf("bruckv: negative allreduce vector size %d: %w", n, ErrInvalidLayout)
	}
	if sb, err = c.buf(send, n); err != nil {
		return sb, rb, err
	}
	rb, err = c.buf(recv, n)
	return sb, rb, err
}

// Allreduce reduces an n-byte vector across all ranks (MPI_Allreduce):
// send holds this rank's contribution; recv receives the element-wise
// op-reduction over all P contributions on every rank. n and op must
// agree on every rank. The algorithm is model-selected (ARAuto) — the
// recursive-doubling vs reduce-scatter+allgather crossover.
func (c *Comm) Allreduce(op ReduceOp, send, recv []byte, n int) error {
	return c.AllreduceWith(ARAuto, op, send, recv, n)
}

// AllreduceWith is Allreduce with an explicit algorithm choice.
func (c *Comm) AllreduceWith(alg AllreduceAlgorithm, op ReduceOp, send, recv []byte, n int) error {
	impl, err := alg.impl()
	if err != nil {
		return err
	}
	sb, rb, err := c.arArgs(send, recv, n)
	if err != nil {
		return err
	}
	return impl(c.p, op, sb, rb, n)
}

// IAllreduce begins a nonblocking Allreduce with the model-selected
// algorithm (overlap and ownership rules as IAlltoallv).
func (c *Comm) IAllreduce(op ReduceOp, send, recv []byte, n int) (*Op, error) {
	return c.IAllreduceWith(ARAuto, op, send, recv, n)
}

// IAllreduceWith is IAllreduce with an explicit algorithm choice.
func (c *Comm) IAllreduceWith(alg AllreduceAlgorithm, op ReduceOp, send, recv []byte, n int) (*Op, error) {
	impl, err := alg.impl()
	if err != nil {
		return nil, err
	}
	sb, rb, err := c.arArgs(send, recv, n)
	if err != nil {
		return nil, err
	}
	req, err := coll.IAllreduce(c.p, impl, op, sb, rb, n)
	if err != nil {
		return nil, err
	}
	return &Op{req: req}, nil
}

// PersistentAllreduce is a reusable Allreduce handle with a frozen
// (op, n), returned by AllreduceInit: init fixes the algorithm — the
// machine model's doubling/rsag choice for the frozen size — and pins
// its scratch; every Start runs that algorithm on it, byte-exact with
// its immediate form.
type PersistentAllreduce struct {
	c *Comm
	h *coll.PersistentAR
	n int
}

// AllreduceInit builds a persistent Allreduce handle for the given
// frozen (op, n). Collective; every rank must pass the same op and n.
func (c *Comm) AllreduceInit(op ReduceOp, n int) (*PersistentAllreduce, error) {
	if n < 0 {
		return nil, fmt.Errorf("bruckv: negative allreduce vector size %d: %w", n, ErrInvalidLayout)
	}
	h, err := coll.AllreduceInit(c.p, op, n)
	if err != nil {
		return nil, err
	}
	return &PersistentAllreduce{c: c, h: h, n: n}, nil
}

// Start performs one allreduce with the frozen (op, n) (nil buffers
// allowed in phantom worlds). Collective; every initializing rank must
// start the same number of times.
func (h *PersistentAllreduce) Start(send, recv []byte) error {
	sb, err := h.c.buf(send, h.n)
	if err != nil {
		return err
	}
	rb, err := h.c.buf(recv, h.n)
	if err != nil {
		return err
	}
	return h.h.Start(sb, rb)
}

// Algorithm returns the algorithm init froze (ARDoubling or ARRSAG).
func (h *PersistentAllreduce) Algorithm() AllreduceAlgorithm {
	a, _ := ParseAllreduceAlgorithm(h.h.Algorithm())
	return a
}

// Executions returns how many times the handle has started.
func (h *PersistentAllreduce) Executions() int { return h.h.Executions() }

// Free returns the handle's pinned staging to the rank's scratch
// arena; a later Start fails with ErrHandleFreed.
func (h *PersistentAllreduce) Free() { h.h.Free() }

// The family registries the impl methods read, built once: their
// implementations, the Auto closures included, hold no state.
var (
	agTable = coll.AllgathervAlgorithms()
	rsTable = coll.ReduceScatterAlgorithms()
	arTable = coll.AllreduceAlgorithms()
)

// ensure the family registries stay in sync with the enums.
var _ = func() struct{} {
	for _, name := range agEnum.names {
		if agTable[name] == nil {
			panic("bruckv: allgatherv algorithm " + name + " missing from registry")
		}
	}
	for _, name := range rsEnum.names {
		if rsTable[name] == nil {
			panic("bruckv: reduce-scatter algorithm " + name + " missing from registry")
		}
	}
	for _, name := range arEnum.names {
		if arTable[name] == nil {
			panic("bruckv: allreduce algorithm " + name + " missing from registry")
		}
	}
	return struct{}{}
}()
