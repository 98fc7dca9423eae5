package coll

import (
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// Nonblocking non-uniform all-to-all (the MPI_Ialltoallv analogue).
// Initiation validates and snapshots an overlap mark; the exchange
// itself — the same blocking code path, so results are byte-exact with
// it — is deferred to Wait, where the virtual clock is rewound to the
// mark, the exchange runs as if it had started at initiation, and the
// rank completes at the later of the communication end and however far
// its local compute had progressed. Compute charged between initiation
// and Wait therefore overlaps the collective's communication fully;
// see internal/mpi/overlap.go for the pricing model's limits.

// VRequest is the handle of an in-flight nonblocking collective
// started by IAlltoallv.
type VRequest struct {
	p    *mpi.Proc
	mark mpi.OverlapMark
	run  func() error
	done bool
	err  error
}

// IAlltoallv begins a nonblocking non-uniform all-to-all running alg's
// exchange. Arguments are validated eagerly — a malformed call fails on
// every rank before any communication — and the count/displacement
// slices are copied, so the caller may reuse them immediately. The
// send and recv buffers belong to the collective until Wait returns:
// the caller must not touch either in between. Every rank must
// complete the request with Wait (or WaitallV), and ranks with several
// requests outstanding must complete them in the same order.
func IAlltoallv(p *mpi.Proc, alg Alltoallv, send buffer.Buf, scounts, sdispls []int,
	recv buffer.Buf, rcounts, rdispls []int) (*VRequest, error) {
	if alg == nil {
		return nil, fmt.Errorf("coll: IAlltoallv: nil algorithm")
	}
	if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
		return nil, err
	}
	// The copies share one slice of the rank's int scratch, held until
	// Wait has run the exchange.
	P := p.Size()
	args := p.AllocInts(4 * P)
	copy(args, scounts)
	copy(args[P:], sdispls)
	copy(args[2*P:], rcounts)
	copy(args[3*P:], rdispls)
	r := &VRequest{p: p, mark: p.MarkOverlap()}
	r.run = func() error {
		err := alg(p, send, args[:P:P], args[P:2*P:2*P], recv, args[2*P:3*P:3*P], args[3*P:])
		p.FreeInts(args)
		return err
	}
	return r, nil
}

// Wait completes the collective: the deferred exchange runs priced
// from the initiation point, overlapping any compute charged since,
// and the receive buffer is valid afterwards. Waiting again returns
// the same result.
func (r *VRequest) Wait() error {
	if r.done {
		return r.err
	}
	r.done = true
	frontier := r.p.RewindOverlap(r.mark)
	r.err = r.run()
	r.run = nil
	r.p.CompleteOverlap(frontier)
	return r.err
}

// IAllgatherv begins a nonblocking allgatherv running alg's exchange,
// under the same overlap model and buffer-ownership rules as
// IAlltoallv. The count/displacement slices are copied eagerly.
func IAllgatherv(p *mpi.Proc, alg Allgatherv, send buffer.Buf, scount int,
	recv buffer.Buf, rcounts, rdispls []int) (*VRequest, error) {
	if alg == nil {
		return nil, fmt.Errorf("coll: IAllgatherv: nil algorithm")
	}
	if err := checkAG(p, send, scount, recv, rcounts, rdispls); err != nil {
		return nil, err
	}
	rc := append([]int(nil), rcounts...)
	rd := append([]int(nil), rdispls...)
	r := &VRequest{p: p, mark: p.MarkOverlap()}
	r.run = func() error { return alg(p, send, scount, recv, rc, rd) }
	return r, nil
}

// IReduceScatter begins a nonblocking reduce-scatter running alg's
// exchange (same overlap model and buffer-ownership rules as
// IAlltoallv). The counts slice is copied eagerly.
func IReduceScatter(p *mpi.Proc, alg ReduceScatter, op ReduceOp,
	send buffer.Buf, counts []int, recv buffer.Buf) (*VRequest, error) {
	if alg == nil {
		return nil, fmt.Errorf("coll: IReduceScatter: nil algorithm")
	}
	if _, _, err := checkRS(p, op, send, counts, recv); err != nil {
		return nil, err
	}
	cs := append([]int(nil), counts...)
	r := &VRequest{p: p, mark: p.MarkOverlap()}
	r.run = func() error { return alg(p, op, send, cs, recv) }
	return r, nil
}

// IAllreduce begins a nonblocking vector allreduce running alg's
// exchange (same overlap model and buffer-ownership rules as
// IAlltoallv).
func IAllreduce(p *mpi.Proc, alg AllreduceV, op ReduceOp,
	send, recv buffer.Buf, n int) (*VRequest, error) {
	if alg == nil {
		return nil, fmt.Errorf("coll: IAllreduce: nil algorithm")
	}
	if err := checkAR(p, op, send, recv, n); err != nil {
		return nil, err
	}
	r := &VRequest{p: p, mark: p.MarkOverlap()}
	r.run = func() error { return alg(p, op, send, recv, n) }
	return r, nil
}

// WaitallV completes every request in order and returns the first
// error. All ranks must pass their requests in the same order.
func WaitallV(rs ...*VRequest) error {
	var first error
	for _, r := range rs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
