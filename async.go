package bruckv

import (
	"fmt"

	"bruckv/internal/coll"
)

// Non-blocking and persistent collectives: the MPI_Ialltoallv and
// MPI_Alltoallv_init analogues. A non-blocking call returns an Op whose
// exchange is priced as if it ran concurrently with any compute charged
// before Wait; a persistent handle freezes a fixed layout's schedule
// and staging buffers once and replays them on every Start, skipping
// the per-call metadata exchange after the first. See DESIGN.md for
// the overlap pricing model and its limits.

// Op is the handle of an in-flight non-blocking collective started by
// IAlltoallv or IAlltoallvWith. It is per-rank state, valid only inside
// the Run that created it.
type Op struct {
	req *coll.VRequest
}

// IAlltoallv begins a non-blocking non-uniform all-to-all with the
// world's configured algorithm (see WithAlgorithm; default Auto).
//
// Arguments are validated eagerly and the count/displacement slices are
// copied, so the caller may reuse them immediately; the send and recv
// buffers belong to the collective until Wait returns. Compute charged
// with ChargeComputeNs between initiation and Wait overlaps the
// collective's communication: the rank completes at the later of the
// exchange's end and its compute frontier. Every rank must complete
// the Op with Wait (or Waitall), and ranks holding several outstanding
// Ops must complete them in the same order.
func (c *Comm) IAlltoallv(send []byte, scounts, sdispls []int,
	recv []byte, rcounts, rdispls []int) (*Op, error) {
	return c.IAlltoallvWith(c.alg, send, scounts, sdispls, recv, rcounts, rdispls)
}

// IAlltoallvWith is IAlltoallv with an explicit algorithm choice.
func (c *Comm) IAlltoallvWith(alg Algorithm, send []byte, scounts, sdispls []int,
	recv []byte, rcounts, rdispls []int) (*Op, error) {
	if r, ok := algRadix(alg); ok && r < 2 {
		return nil, fmt.Errorf("bruckv: two-phase radix %d < 2: %w", r, ErrInvalidRadix)
	}
	sTotal, err := validateLayout(c.Size(), scounts, sdispls, "send")
	if err != nil {
		return nil, err
	}
	rTotal, err := validateLayout(c.Size(), rcounts, rdispls, "recv")
	if err != nil {
		return nil, err
	}
	sb, err := c.buf(send, sTotal)
	if err != nil {
		return nil, err
	}
	rb, err := c.buf(recv, rTotal)
	if err != nil {
		return nil, err
	}
	var impl coll.Alltoallv
	if alg == Auto && c.tuning != nil {
		impl = coll.Auto(c.tuning)
	} else {
		impl = alg.impl()
	}
	if impl == nil {
		return nil, fmt.Errorf("bruckv: algorithm %v has no Alltoallv implementation: %w", alg, ErrInvalidAlgorithm)
	}
	req, err := coll.IAlltoallv(c.p, impl, sb, scounts, sdispls, rb, rcounts, rdispls)
	if err != nil {
		return nil, err
	}
	return &Op{req: req}, nil
}

// Wait completes the collective: the receive buffer is valid
// afterwards, and the rank's virtual clock advances to the later of
// the exchange's end and the compute charged since initiation.
// Waiting again returns the same result.
func (o *Op) Wait() error { return o.req.Wait() }

// Waitall completes every Op in order and returns the first error.
// All ranks must pass their Ops in the same order.
func (c *Comm) Waitall(ops ...*Op) error {
	reqs := make([]*coll.VRequest, len(ops))
	for i, o := range ops {
		reqs[i] = o.req
	}
	return coll.WaitallV(reqs...)
}

// Persistent is a reusable non-uniform all-to-all handle with a frozen
// layout, returned by AlltoallvInit: planning pays validation, the
// global-maximum reduction, the radix schedule, and staging-buffer
// allocation once; the first Start additionally freezes the metadata
// every sub-step would exchange, so later Starts move half the
// messages.
type Persistent struct {
	c *Comm
	h *coll.PersistentV
}

// AlltoallvInit builds a persistent handle for the given fixed layout.
// It is a collective: all ranks must initialize together. The radix is
// taken from the world's configured algorithm when that pins one (any
// TwoPhaseRadix(r), including TwoPhaseBruck and the named radix-4/-8
// variants); otherwise — Auto or a non-radix algorithm — it is chosen
// per layout from the tuning table where calibrated, else the machine
// model's predicted-best radix.
func (c *Comm) AlltoallvInit(scounts, sdispls, rcounts, rdispls []int) (*Persistent, error) {
	if _, err := validateLayout(c.Size(), scounts, sdispls, "send"); err != nil {
		return nil, err
	}
	if _, err := validateLayout(c.Size(), rcounts, rdispls, "recv"); err != nil {
		return nil, err
	}
	var h *coll.PersistentV
	var err error
	if r, ok := algRadix(c.alg); ok {
		if r < 2 {
			return nil, fmt.Errorf("bruckv: two-phase radix %d < 2: %w", r, ErrInvalidRadix)
		}
		h, err = coll.AlltoallvInit(c.p, r, scounts, sdispls, rcounts, rdispls)
	} else {
		h, err = coll.AlltoallvInitAuto(c.p, c.tuning, scounts, sdispls, rcounts, rdispls)
	}
	if err != nil {
		return nil, err
	}
	return &Persistent{c: c, h: h}, nil
}

// Start performs one exchange with the frozen layout. send and recv
// must satisfy the counts and displacements given at init (nil allowed
// in phantom worlds). It is a collective: every initializing rank must
// start the same number of times.
func (p *Persistent) Start(send, recv []byte) error {
	sb, err := p.c.buf(send, p.h.SendSpan())
	if err != nil {
		return err
	}
	rb, err := p.c.buf(recv, p.h.RecvSpan())
	if err != nil {
		return err
	}
	return p.h.Start(sb, rb)
}

// Radix returns the two-phase radix the handle runs.
func (p *Persistent) Radix() int { return p.h.Radix() }

// MaxBlock returns the handle's global maximum block size in bytes.
func (p *Persistent) MaxBlock() int { return p.h.MaxBlock() }

// Executions returns how many times the handle has started.
func (p *Persistent) Executions() int { return p.h.Executions() }

// Free returns the handle's pinned staging buffers to the rank's
// scratch arena; a later Start fails with ErrHandleFreed. Freeing is
// optional but lets long-lived ranks recycle scratch memory.
func (p *Persistent) Free() { p.h.Free() }
