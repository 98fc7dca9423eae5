package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"bruckv"
	"bruckv/internal/dist"
)

// JobRequest is one collective job as submitted by a tenant: which
// collective to run, on how many ranks, over which deterministic
// workload. The workload is a pure function of (dist, max_block, seed,
// local rank), so the client and the server independently agree on
// every payload byte — the basis of the end-to-end digest check.
type JobRequest struct {
	// Tenant names the submitting tenant; it must be configured on the
	// server.
	Tenant string `json:"tenant"`
	// Op selects the collective: "alltoallv", "allgatherv",
	// "reduce_scatter", or "allreduce".
	Op string `json:"op"`
	// Ranks is the number of ranks the job leases (>= 1).
	Ranks int `json:"ranks"`
	// Algorithm optionally pins the collective's algorithm by its
	// family's registry name; empty picks the family default.
	Algorithm string `json:"algorithm,omitempty"`
	// Reduce is the reduction operator for reduce_scatter and
	// allreduce: "sum" (default), "max", "min", or "xor".
	Reduce string `json:"reduce,omitempty"`
	// Dist names the block-size distribution: "uniform" (default),
	// "windowed", "normal", "powerlaw", or "fixed".
	Dist string `json:"dist,omitempty"`
	// MaxBlock is the distribution's maximum block size in bytes.
	MaxBlock int `json:"max_block"`
	// Window is the windowed distribution's spread percentage R.
	Window int `json:"window,omitempty"`
	// Base is the powerlaw distribution's exponent base in (0, 1).
	Base float64 `json:"base,omitempty"`
	// Seed makes the workload reproducible.
	Seed uint64 `json:"seed"`
	// Repeat runs the collective this many times back to back (default
	// 1), each iteration over a derived workload
	// (dist.Spec.WithIteration), inside a single lease.
	Repeat int `json:"repeat,omitempty"`
}

// JobResponse reports one served job.
type JobResponse struct {
	JobID  uint64 `json:"job_id"`
	Tenant string `json:"tenant"`
	// World is the pool profile the job ran on.
	World string `json:"world"`
	// Ranks lists the leased global ranks, ascending; the job ran on
	// the sub-communicator they form.
	Ranks []int `json:"ranks"`
	// Digest is the hex SHA-256 job digest (see Digest); empty on
	// phantom worlds, which carry no payload bytes.
	Digest string `json:"digest,omitempty"`
	// VirtualNs is the job's simulated duration: the maximum over the
	// leased ranks of each rank's own virtual-clock advance.
	VirtualNs float64 `json:"virtual_ns"`
	// Bytes and Messages are the job's exact traffic, from the leased
	// ranks' per-rank counters (concurrent jobs on disjoint leases do
	// not bleed into each other's totals).
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	// QueueWallNs and RunWallNs split the job's wall-clock residency
	// into time queued for a lease and time executing.
	QueueWallNs int64 `json:"queue_wall_ns"`
	RunWallNs   int64 `json:"run_wall_ns"`
}

// jobSpec is the validated, parsed form of a JobRequest, resolved once
// at admission so rank goroutines never parse strings.
type jobSpec struct {
	op      string
	k       int
	repeat  int
	spec    dist.Spec
	redOp   bruckv.ReduceOp
	algA2AV bruckv.Algorithm
	algAG   bruckv.AllgathervAlgorithm
	algRS   bruckv.ReduceScatterAlgorithm
	algAR   bruckv.AllreduceAlgorithm
	phantom bool
}

// parseJob validates a request against no particular world: ops, names,
// and workload parameters. Errors wrap ErrInvalidJob.
func parseJob(req JobRequest) (jobSpec, error) {
	js := jobSpec{op: req.Op, k: req.Ranks}
	fail := func(format string, args ...any) (jobSpec, error) {
		return jobSpec{}, fmt.Errorf("service: "+format+": %w", append(args, ErrInvalidJob)...)
	}
	if req.Ranks < 1 {
		return fail("job needs at least one rank (got %d)", req.Ranks)
	}
	if req.MaxBlock < 0 {
		return fail("negative max block %d", req.MaxBlock)
	}
	if req.Repeat < 0 {
		return fail("negative repeat %d", req.Repeat)
	}
	js.repeat = req.Repeat
	if js.repeat == 0 {
		js.repeat = 1
	}
	kindName := req.Dist
	if kindName == "" {
		kindName = "uniform"
	}
	kind, err := dist.ParseKind(kindName)
	if err != nil {
		return fail("%v", err)
	}
	js.spec = dist.Spec{Kind: kind, N: req.MaxBlock, R: req.Window, Base: req.Base, Seed: req.Seed}
	if js.spec.Kind == dist.PowerLaw && js.spec.Base == 0 {
		js.spec.Base = 0.99
	}
	if err := js.spec.Validate(); err != nil {
		return fail("%v", err)
	}
	switch req.Reduce {
	case "", "sum":
		js.redOp = bruckv.OpSum
	case "max":
		js.redOp = bruckv.OpMax
	case "min":
		js.redOp = bruckv.OpMin
	case "xor":
		js.redOp = bruckv.OpXor
	default:
		return fail("unknown reduce op %q (sum, max, min, xor)", req.Reduce)
	}
	switch req.Op {
	case "alltoallv":
		js.algA2AV = bruckv.Auto
		if req.Algorithm != "" {
			if js.algA2AV, err = bruckv.ParseAlgorithm(req.Algorithm); err != nil {
				return fail("%v", err)
			}
		}
	case "allgatherv":
		js.algAG = bruckv.AGAuto
		if req.Algorithm != "" {
			if js.algAG, err = bruckv.ParseAllgathervAlgorithm(req.Algorithm); err != nil {
				return fail("%v", err)
			}
		}
	case "reduce_scatter":
		js.algRS = bruckv.RSAuto
		if req.Algorithm != "" {
			if js.algRS, err = bruckv.ParseReduceScatterAlgorithm(req.Algorithm); err != nil {
				return fail("%v", err)
			}
		}
	case "allreduce":
		js.algAR = bruckv.ARAuto
		if req.Algorithm != "" {
			if js.algAR, err = bruckv.ParseAllreduceAlgorithm(req.Algorithm); err != nil {
				return fail("%v", err)
			}
		}
	default:
		return fail("unknown op %q (alltoallv, allgatherv, reduce_scatter, allreduce)", req.Op)
	}
	return js, nil
}

// payloadBound is the job's worst-case payload footprint in bytes, the
// quantity Quota.MaxBytes caps: every block at the distribution's
// maximum, times the repeat count.
func (js jobSpec) payloadBound() int64 {
	k, n := int64(js.k), int64(js.spec.N)
	var per int64
	switch js.op {
	case "alltoallv":
		per = k * k * n
	case "allgatherv":
		per = k * k * n // every rank receives every contribution
	case "reduce_scatter":
		per = k * k * n // every rank sends the full segment vector
	default: // allreduce
		per = k * n
	}
	return per * int64(js.repeat)
}

// fillBlock writes the deterministic payload of the (src, dst) block:
// a splitmix64 byte stream keyed by (seed, src, dst), each output word
// stored little-endian. Sender and verifier compute identical bytes
// without communicating.
func fillBlock(seed uint64, src, dst int, b []byte) {
	x := seed ^ 0x9e3779b97f4a7c15*uint64(src+1) ^ 0xbf58476d1ce4e5b9*uint64(dst+1)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		h := x
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		return h ^ h>>31
	}
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, next())
		b = b[8:]
	}
	if len(b) > 0 {
		h := next()
		for i := range b {
			b[i] = byte(h >> (8 * i))
		}
	}
}

// prefix turns counts into displacements and returns the total.
func prefix(counts []int) ([]int, int) {
	displs := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		displs[i] = total
		total += c
	}
	return displs, total
}

// runOnComm executes the job's collective on sub (the job's
// sub-communicator, sized js.k; the caller's rank within it is the
// job's local rank) and returns the SHA-256 folding of this rank's
// received bytes across all Repeat iterations. Workloads address ranks
// by their LOCAL position, so the digest is independent of which
// global ranks the lease happened to grab.
func runOnComm(sub *bruckv.Comm, js jobSpec) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	fold := sha256.New()
	for it := 0; it < js.repeat; it++ {
		d, err := runOnce(sub, js, js.spec.WithIteration(it))
		if err != nil {
			return zero, err
		}
		fold.Write(d[:])
	}
	var out [sha256.Size]byte
	fold.Sum(out[:0])
	return out, nil
}

// runOnce is one iteration of the job's collective over one derived
// workload spec.
func runOnce(sub *bruckv.Comm, js jobSpec, spec dist.Spec) ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	lr, k := sub.Rank(), sub.Size()
	mk := func(n int) []byte {
		if js.phantom {
			return nil
		}
		return make([]byte, n)
	}
	digest := func(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }
	switch js.op {
	case "alltoallv":
		sc, rc := make([]int, k), make([]int, k)
		spec.Counts(lr, k, sc, rc)
		sdispls, sTotal := prefix(sc)
		rdispls, rTotal := prefix(rc)
		send, recv := mk(sTotal), mk(rTotal)
		if !js.phantom {
			for d := 0; d < k; d++ {
				fillBlock(spec.Seed, lr, d, send[sdispls[d]:sdispls[d]+sc[d]])
			}
		}
		if err := sub.AlltoallvWith(js.algA2AV, send, sc, sdispls, recv, rc, rdispls); err != nil {
			return zero, err
		}
		return digest(recv), nil
	case "allgatherv":
		rcounts := make([]int, k)
		for j := 0; j < k; j++ {
			rcounts[j] = spec.BlockSize(j, 0, k)
		}
		rdispls, rTotal := prefix(rcounts)
		send, recv := mk(rcounts[lr]), mk(rTotal)
		if !js.phantom {
			fillBlock(spec.Seed, lr, 0, send)
		}
		if err := sub.AllgathervWith(js.algAG, send, rcounts[lr], recv, rcounts, rdispls); err != nil {
			return zero, err
		}
		return digest(recv), nil
	case "reduce_scatter":
		counts := make([]int, k)
		for j := 0; j < k; j++ {
			counts[j] = spec.BlockSize(j, 0, k)
		}
		_, total := prefix(counts)
		send, recv := mk(total), mk(counts[lr])
		if !js.phantom {
			fillBlock(spec.Seed, lr, 0, send)
		}
		if err := sub.ReduceScatterWith(js.algRS, js.redOp, send, counts, recv); err != nil {
			return zero, err
		}
		return digest(recv), nil
	case "allreduce":
		n := spec.N
		send, recv := mk(n), mk(n)
		if !js.phantom {
			fillBlock(spec.Seed, lr, 0, send)
		}
		if err := sub.AllreduceWith(js.algAR, js.redOp, send, recv, n); err != nil {
			return zero, err
		}
		return digest(recv), nil
	}
	return zero, fmt.Errorf("service: unknown op %q: %w", js.op, ErrInvalidJob)
}

// jobDigest folds the per-rank receive digests, in local-rank order,
// into the job digest reported to the tenant.
func jobDigest(perRank [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range perRank {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digest computes the job digest a correct server must report for req:
// it runs the collective directly on w, which must be a raw
// (non-phantom) world of exactly req.Ranks ranks. It is the oracle
// bruckload and the service tests check served bytes against.
func Digest(w *bruckv.World, req JobRequest) (string, error) {
	js, err := parseJob(req)
	if err != nil {
		return "", err
	}
	if w.Size() != js.k {
		return "", fmt.Errorf("service: digest oracle world has %d ranks, job wants %d: %w",
			w.Size(), js.k, ErrInvalidJob)
	}
	perRank := make([][sha256.Size]byte, js.k)
	errs := make([]error, js.k)
	if err := w.Run(func(c *bruckv.Comm) error {
		perRank[c.Rank()], errs[c.Rank()] = runOnComm(c, js)
		return errs[c.Rank()]
	}); err != nil {
		return "", err
	}
	return jobDigest(perRank), nil
}
