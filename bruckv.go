// Package bruckv is an open reimplementation of the HPDC '22 paper
// "Optimizing the Bruck Algorithm for Non-uniform All-to-all
// Communication" (Fan et al.) as a Go library.
//
// It provides MPI_Alltoall / MPI_Alltoallv-style collectives — including
// the paper's zero-rotation Bruck, padded Bruck, and two-phase Bruck —
// over a deterministic simulated message-passing runtime in which every
// rank is a goroutine and communication is priced by a configurable
// machine model (Theta, Cori, Stampede presets). The same algorithms
// move real bytes for correctness-sensitive work and size-only phantom
// payloads for large-scale performance studies.
//
// # Quick start
//
//	w, _ := bruckv.NewWorld(64)
//	err := w.Run(func(c *bruckv.Comm) error {
//	    send, scounts, sdispls := ...   // per-destination blocks
//	    rcounts := make([]int, c.Size())
//	    if err := c.ExchangeCounts(scounts, rcounts); err != nil { return err }
//	    rdispls, total := bruckv.Displacements(rcounts)
//	    recv := make([]byte, total)
//	    return c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls)
//	})
//
// The evaluation harness that regenerates the paper's figures lives in
// cmd/bruckbench, cmd/tcbench, and cmd/kcfabench.
package bruckv

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
	"bruckv/internal/fault"
	"bruckv/internal/mpi"
)

// Algorithm selects the MPI_Alltoallv implementation.
type Algorithm int

const (
	// Auto picks per call among TwoPhaseBruck (including its radix-4 and
	// radix-8 variants), PaddedBruck, and SpreadOut, using the machine
	// model's estimates at the call's globally agreed rank count, maximum
	// block size, and skew — the paper's Figure 9 decision surface as a
	// runtime selector. An empirical calibration table installed with
	// WithTuning overrides the analytic prior where it has coverage. The
	// decision is deterministic and appears in traces as a phase named
	// "auto:<algorithm> pred=<ns> <source>".
	Auto Algorithm = iota
	// SpreadOut posts all nonblocking sends/receives at once (linear in
	// P).
	SpreadOut
	// Vendor models a vendor MPI_Alltoallv (throttled spread-out).
	Vendor
	// PaddedBruck pads blocks to the global maximum and runs log-time
	// uniform Bruck; best for very small blocks.
	PaddedBruck
	// PaddedAlltoall pads and calls the vendor MPI_Alltoall.
	PaddedAlltoall
	// TwoPhaseBruck is the paper's coupled metadata+data log-time
	// algorithm; best for small-to-moderate blocks.
	TwoPhaseBruck
	// SLOAVBaseline is the prior log-time algorithm the paper improves
	// on, kept for ablation.
	SLOAVBaseline
	// TwoPhaseRadix4 and TwoPhaseRadix8 generalize two-phase Bruck to
	// base-4 and base-8 digits: fewer hops per block, more messages.
	TwoPhaseRadix4
	TwoPhaseRadix8
	// Hierarchical funnels each node's traffic through a leader rank so
	// the network carries (P/R)^2 aggregated messages (requires
	// WithRanksPerNode).
	Hierarchical
)

var algEnum = enumNames[Algorithm]{
	what: "algorithm", goType: "Algorithm",
	names: map[Algorithm]string{
		Auto: "auto", SpreadOut: "spreadout", Vendor: "vendor",
		PaddedBruck: "padded-bruck", PaddedAlltoall: "padded-alltoall",
		TwoPhaseBruck: "two-phase", SLOAVBaseline: "sloav",
		TwoPhaseRadix4: "two-phase-r4", TwoPhaseRadix8: "two-phase-r8",
		Hierarchical: "hierarchical",
	},
}

// twoPhaseRadixBase offsets radix-parameterized Algorithm values so
// they can never collide with the named enum: TwoPhaseRadix(r) for r
// outside {2, 4, 8} is twoPhaseRadixBase + r. Invalid radices (r < 2)
// all map to the base value itself, which every entry point rejects
// with ErrInvalidRadix.
const twoPhaseRadixBase Algorithm = 1 << 16

// TwoPhaseRadix returns the Algorithm running radix-r two-phase Bruck,
// for any r >= 2: ceil(log_r P) digit positions with r-1 metadata+data
// sub-steps each — fewer hops per block, more messages, the radix
// dimension the paper's conclusion calls for. TwoPhaseRadix(2) is
// TwoPhaseBruck, and TwoPhaseRadix(4)/TwoPhaseRadix(8) are the named
// constants. A radix below 2 yields an Algorithm that NewWorld and the
// collectives reject with an error wrapping ErrInvalidRadix.
func TwoPhaseRadix(r int) Algorithm {
	switch r {
	case 2:
		return TwoPhaseBruck
	case 4:
		return TwoPhaseRadix4
	case 8:
		return TwoPhaseRadix8
	}
	if r < 2 {
		return twoPhaseRadixBase
	}
	return twoPhaseRadixBase + Algorithm(r)
}

// algRadix returns the two-phase radix an Algorithm pins, if any:
// TwoPhaseBruck is radix 2, the named and parameterized radix variants
// their own r. The returned radix may be invalid (< 2) for a value
// built by TwoPhaseRadix from a bad radix; callers reject those with
// ErrInvalidRadix.
func algRadix(a Algorithm) (int, bool) {
	switch a {
	case TwoPhaseBruck:
		return 2, true
	case TwoPhaseRadix4:
		return 4, true
	case TwoPhaseRadix8:
		return 8, true
	}
	if a >= twoPhaseRadixBase {
		return int(a - twoPhaseRadixBase), true
	}
	return 0, false
}

// validAlgorithm reports whether a names a runnable Alltoallv: a named
// enum value or a radix-parameterized value with r >= 2.
func validAlgorithm(a Algorithm) bool {
	if _, ok := algEnum.names[a]; ok {
		return true
	}
	r, ok := algRadix(a)
	return ok && r >= 2
}

// String returns the algorithm's registry name.
func (a Algorithm) String() string {
	if _, ok := algEnum.names[a]; !ok {
		if r, rok := algRadix(a); rok && r >= 2 {
			return coll.RadixName(r)
		}
	}
	return algEnum.format(a)
}

// ParseAlgorithm resolves a name (as printed by String) to an
// Algorithm. Beyond the named set, "two-phase-r<r>" parses to
// TwoPhaseRadix(r) for any r >= 2. An unknown name returns an error
// wrapping ErrInvalidAlgorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	lower := strings.ToLower(s)
	if a, ok := algEnum.lookup(lower); ok {
		return a, nil
	}
	if r, ok := coll.RadixOfName(lower); ok {
		return TwoPhaseRadix(r), nil
	}
	_, err := algEnum.parse(s)
	return Auto, err
}

// Algorithms returns every Alltoallv algorithm, in enum order. The
// names printed by their String methods are exactly the set
// ParseAlgorithm accepts.
func Algorithms() []Algorithm { return algEnum.list() }

// UniformAlgorithmList returns every uniform Alltoall variant, in enum
// order.
func UniformAlgorithmList() []UniformAlgorithm { return uniformEnum.list() }

func (a Algorithm) impl() coll.Alltoallv {
	impl, _ := coll.ResolveNonUniform(a.String())
	return impl
}

// World is a simulated communicator of Size ranks.
type World struct {
	w      *mpi.World
	alg    Algorithm
	tuning *coll.Table
}

// Option configures a World.
type Option func(*config)

type config struct {
	params       MachineParams
	phantom      bool
	alg          Algorithm
	tuning       *Tuning
	ranksPerNode int
	rpnSet       bool
	trace        bool
	faults       FaultPlan
	faultsSet    bool
	deadline     time.Duration
	executor     Executor
	// err is a deferred configuration error (see errOption): NewWorld
	// fails with it before validating anything else.
	err error
}

// WithMachine sets the communication cost model (default Theta()).
func WithMachine(p MachineParams) Option { return func(c *config) { c.params = p } }

// WithPhantom switches the world to size-only payloads: Alltoall buffers
// may be nil and no payload memory is allocated, enabling large-scale
// performance studies.
func WithPhantom() Option { return func(c *config) { c.phantom = true } }

// WithAlgorithm sets the default Alltoallv algorithm (default Auto).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.alg = a } }

// WithRanksPerNode places consecutive ranks on shared-memory nodes of
// the given width: intra-node messages use the model's cheaper
// intra-node parameters, and the Hierarchical algorithm funnels traffic
// through node leaders. NewWorld rejects n <= 0 and normalizes n larger
// than the world size down to the world size; a width that does not
// divide the world size leaves the last node smaller.
func WithRanksPerNode(n int) Option {
	return func(c *config) { c.ranksPerNode, c.rpnSet = n, true }
}

// FaultPlan describes a deterministic, seeded perturbation of the
// simulated network — the public mirror of the internal fault model
// (see WithFaults).
type FaultPlan struct {
	// Seed drives every random draw; identical (seed, plan, algorithm,
	// workload) runs produce bit-identical virtual timings.
	Seed uint64 `json:"seed,omitempty"`
	// StragglerRanks is an explicit set of straggler rank ids. When
	// empty, Stragglers ranks are picked deterministically from Seed.
	StragglerRanks []int `json:"straggler_ranks,omitempty"`
	// Stragglers is the number of seed-picked straggler ranks (ignored
	// when StragglerRanks is non-empty).
	Stragglers int `json:"stragglers,omitempty"`
	// Slowdown is the multiplier (>= 1) on straggler ranks' send,
	// receive, and compute costs.
	Slowdown float64 `json:"slowdown,omitempty"`
	// Jitter is the maximum fractional per-message wire-cost inflation:
	// each message's per-byte time and latency are scaled by
	// 1 + U(0, Jitter).
	Jitter float64 `json:"jitter,omitempty"`
	// Loss is the per-attempt probability in [0, 1) that a message copy
	// is dropped in flight. Any non-zero Loss, Dup, Corrupt, or Crashes
	// entry routes every message through the reliable transport:
	// checksummed envelopes with ack/retransmit recovery priced into the
	// virtual timeline (see RTONs, Backoff, MaxRetries).
	Loss float64 `json:"loss,omitempty"`
	// Dup is the per-attempt probability in [0, 1) that the
	// acknowledgment of a delivered copy is lost, costing the sender a
	// retransmission and the receiver a duplicate it must discard.
	Dup float64 `json:"dup,omitempty"`
	// Corrupt is the per-attempt probability in [0, 1) that a copy
	// arrives with a payload the envelope checksum rejects — priced
	// exactly like a loss.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Crashes schedules hard rank failures: each listed rank stops
	// acknowledging messages at its virtual-time crash point and stays
	// dead for the lifetime of the world. Runs involving crashed ranks
	// fail with a *RankFailedError; survivors recover on Comm.Shrink.
	Crashes []RankCrash `json:"crashes,omitempty"`
	// RTONs is the reliable transport's initial retransmission timeout
	// in virtual nanoseconds; 0 derives it from the machine model's
	// overhead and latency parameters.
	RTONs float64 `json:"rto_ns,omitempty"`
	// Backoff multiplies the timeout after each retransmission
	// (default 2; values below 1 are invalid).
	Backoff float64 `json:"backoff,omitempty"`
	// MaxRetries bounds the retransmissions per message (default 8);
	// a sender exhausting the budget declares the destination failed.
	MaxRetries int `json:"max_retries,omitempty"`
}

// RankCrash schedules one rank's permanent failure at a virtual time.
type RankCrash struct {
	// Rank is the global rank id that crashes.
	Rank int `json:"rank"`
	// AtNs is the virtual time of death in nanoseconds; 0 means the
	// rank is dead from the start of the run.
	AtNs float64 `json:"at_ns,omitempty"`
}

func (fp FaultPlan) plan() fault.Plan {
	pl := fault.Plan{
		Seed:          fp.Seed,
		Stragglers:    fp.StragglerRanks,
		NumStragglers: fp.Stragglers,
		Slowdown:      fp.Slowdown,
		Jitter:        fp.Jitter,
		Loss:          fp.Loss,
		Dup:           fp.Dup,
		Corrupt:       fp.Corrupt,
		RTONs:         fp.RTONs,
		Backoff:       fp.Backoff,
		MaxRetries:    fp.MaxRetries,
	}
	for _, cr := range fp.Crashes {
		pl.Crashes = append(pl.Crashes, fault.Crash{Rank: cr.Rank, AtNs: cr.AtNs})
	}
	return pl
}

// WithFaults installs a deterministic fault plan: straggler ranks whose
// communication and compute are slowed by a factor, per-message wire
// jitter, message loss/duplication/corruption recovered by a reliable
// transport, and scheduled rank crashes. Perturbations are priced into
// the virtual clocks like any model cost, so faulted runs remain
// bit-reproducible for a given plan, and a zero plan leaves timings
// identical to a world without a fault layer. With WithTrace, injected
// delay and every drop/retransmit/ack appear in the event log as their
// own event kinds. A malformed plan makes NewWorld fail with an error
// wrapping ErrInvalidFaultPlan.
func WithFaults(fp FaultPlan) Option {
	return func(c *config) { c.faults, c.faultsSet = fp, true }
}

// WithDeadline arms a wall-clock watchdog on each Run: a run exceeding
// d is aborted with an error reporting every blocked rank and the
// (src, tag) pairs it was waiting for — the same diagnostic a detected
// deadlock produces — so a hung algorithm fails fast with an actionable
// message instead of wedging the caller.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// WithTrace records a structured event log over the virtual timeline
// during each Run — per-rank sends, receives, local copies, phases, and
// Bruck step annotations — available afterwards from World.Trace.
// Tracing never alters virtual time; it is off by default and costs
// nothing when off.
func WithTrace() Option { return func(c *config) { c.trace = true } }

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int, opts ...Option) (*World, error) {
	cfg := config{params: Theta()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if !validAlgorithm(cfg.alg) {
		if r, ok := algRadix(cfg.alg); ok {
			return nil, fmt.Errorf("bruckv: two-phase radix %d < 2: %w", r, ErrInvalidRadix)
		}
		return nil, fmt.Errorf("bruckv: algorithm %d: %w", int(cfg.alg), ErrInvalidAlgorithm)
	}
	if cfg.faultsSet {
		if err := cfg.faults.plan().Validate(); err != nil {
			return nil, fmt.Errorf("bruckv: %w: %w", ErrInvalidFaultPlan, err)
		}
	}
	mopts := []mpi.Option{mpi.WithModel(cfg.params.model())}
	if cfg.phantom {
		mopts = append(mopts, mpi.WithPhantom())
	}
	if cfg.rpnSet {
		mopts = append(mopts, mpi.WithRanksPerNode(cfg.ranksPerNode))
	}
	if cfg.trace {
		mopts = append(mopts, mpi.WithTrace())
	}
	if cfg.faultsSet {
		mopts = append(mopts, mpi.WithFaults(cfg.faults.plan()))
	}
	if cfg.deadline != 0 {
		mopts = append(mopts, mpi.WithDeadline(cfg.deadline))
	}
	if cfg.executor != Goroutines {
		mopts = append(mopts, mpi.WithExecutor(mpi.Executor(cfg.executor)))
	}
	w, err := mpi.NewWorld(size, mopts...)
	if err != nil {
		return nil, err
	}
	nw := &World{w: w, alg: cfg.alg}
	if cfg.tuning != nil {
		nw.tuning = cfg.tuning.table
	}
	// Nothing inside the session refers back to this wrapper, so unlike
	// the session's World (which its ranks point at) it is finalized
	// once dropped.
	runtime.SetFinalizer(nw, (*World).Close)
	return nw, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.w.Size() }

// Run executes fn on every rank concurrently and returns the joined
// errors. The rank goroutines are resident: the first Run spawns them
// and later Runs reuse them, so iterated workloads pay the session
// setup once (see Close).
func (w *World) Run(fn func(c *Comm) error) error {
	return w.RunContext(context.Background(), fn)
}

// RunContext is Run bounded by a context: if ctx is canceled or its
// deadline passes mid-run, the run aborts with the same per-rank
// blocked-state report (DeadlockError) the deadlock detector and
// WithDeadline watchdog produce, and the returned error matches
// errors.Is against ctx's error. Cancellation is best-effort — ranks
// are interrupted at their next blocking receive.
func (w *World) RunContext(ctx context.Context, fn func(c *Comm) error) error {
	return w.w.RunContext(ctx, func(p *mpi.Proc) error {
		return fn(&Comm{p: p, alg: w.alg, tuning: w.tuning})
	})
}

// Close releases the world's resident rank goroutines; further Runs
// fail. Closing is idempotent. A World dropped without Close releases
// them when the garbage collector finalizes it, which happens at no
// predictable time, so close worlds explicitly when many are created in
// sequence.
func (w *World) Close() {
	runtime.SetFinalizer(w, nil)
	w.w.Close()
}

// MaxTimeNs returns the maximum virtual time over all ranks of the last
// Run, in nanoseconds. It is Stats().MaxTimeNs.
func (w *World) MaxTimeNs() float64 { return w.Stats().MaxTimeNs }

// TotalBytes returns the total payload bytes sent during the last Run.
// It is Stats().TotalBytes.
func (w *World) TotalBytes() int64 { return w.Stats().TotalBytes }

// TotalMessages returns the point-to-point message count of the last
// Run. It is Stats().TotalMessages.
func (w *World) TotalMessages() int64 { return w.Stats().TotalMessages }

// FailedRanks returns the global ranks recorded as permanently failed
// by completed Runs — the set Comm.Shrink excludes — sorted ascending.
// It must not be called concurrently with Run.
func (w *World) FailedRanks() []int { return w.w.FailedRanks() }

// Comm is one rank's communicator handle, valid only inside Run.
type Comm struct {
	p      *mpi.Proc
	alg    Algorithm
	tuning *coll.Table
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.p.Rank() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.p.Size() }

// NowNs returns this rank's virtual clock in nanoseconds.
func (c *Comm) NowNs() float64 { return c.p.Now() }

// BytesSent returns the payload bytes this rank has sent so far in the
// current Run. With Stats(), it lets a long-lived session attribute
// traffic to phases or jobs: snapshot before and after a collective and
// difference — per-rank counters only move with the rank's own
// activity, so concurrent collectives on disjoint sub-communicators
// account independently.
func (c *Comm) BytesSent() int64 { return c.p.BytesSent() }

// MessagesSent returns the point-to-point messages this rank has sent
// so far in the current Run (see BytesSent for the snapshotting
// pattern).
func (c *Comm) MessagesSent() int64 { return c.p.MsgsSent() }

// ChargeComputeNs advances this rank's virtual clock by ns nanoseconds
// of application compute, so end-to-end application timings (like the
// paper's Section 5 studies) include computation.
func (c *Comm) ChargeComputeNs(ns float64) { c.p.Charge(ns) }

// Barrier blocks until all ranks enter it.
func (c *Comm) Barrier() { c.p.Barrier() }

// AllreduceMaxInt returns the maximum of v across ranks.
func (c *Comm) AllreduceMaxInt(v int) int { return c.p.AllreduceMaxInt(v) }

// AllreduceSumInt64 returns the sum of v across ranks.
func (c *Comm) AllreduceSumInt64(v int64) int64 { return c.p.AllreduceSumInt64(v) }

// BcastInt64 broadcasts v from root and returns it on every rank.
func (c *Comm) BcastInt64(v int64, root int) int64 { return c.p.BcastInt64(v, root) }

// Undefined is the color passed to Split by ranks that want no
// communicator out of the split.
const Undefined = mpi.Undefined

// Split partitions this communicator by color: ranks passing the same
// color form a new communicator whose ranks are ordered by (key, old
// rank), with barriers, allreduces, and Alltoall(v) dispatch scoped to
// the subset. Ranks passing Undefined receive nil. It is a collective —
// every rank of this communicator must call it — and collectives on the
// resulting disjoint communicators may run concurrently. Colors must be
// >= 0 or Undefined.
func (c *Comm) Split(color, key int) *Comm {
	p := c.p.Split(color, key)
	if p == nil {
		return nil
	}
	return &Comm{p: p, alg: c.alg, tuning: c.tuning}
}

// Group returns the communicator consisting of the listed ranks of this
// communicator, in the given order (the i-th listed rank becomes rank
// i). It exchanges no messages, but every listed rank must call Group
// with an identical list; a caller not in the list gets (nil, nil). A
// malformed list (empty, out of range, duplicates) returns an error
// wrapping ErrInvalidRanks.
func (c *Comm) Group(ranks []int) (*Comm, error) {
	p, err := c.p.Group(ranks)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRanks, err)
	}
	if p == nil {
		return nil, nil
	}
	return &Comm{p: p, alg: c.alg, tuning: c.tuning}, nil
}

// GlobalRank returns this rank's id in the world communicator,
// regardless of which communicator this handle is scoped to.
func (c *Comm) GlobalRank() int { return c.p.GlobalRank() }

// Shrink returns the communicator of this communicator's surviving
// members — the ranks not recorded as failed by an earlier Run — in
// their current order, renumbered contiguously (the ULFM
// MPIX_Comm_shrink analogue). It exchanges no messages and every
// surviving member derives the identical communicator; if no member has
// failed it returns the receiver unchanged. The recovery pattern after
// a Run fails with a *RankFailedError is to Run again and have each
// rank re-issue the collective on the communicator Shrink returns:
//
//	var rfe *bruckv.RankFailedError
//	if errors.As(err, &rfe) {
//	    err = w.Run(func(c *bruckv.Comm) error {
//	        sub := c.Shrink()
//	        return sub.Alltoallv(...)
//	    })
//	}
func (c *Comm) Shrink() *Comm {
	p := c.p.Shrink()
	if p == nil {
		return nil
	}
	if p == c.p {
		return c
	}
	return &Comm{p: p, alg: c.alg, tuning: c.tuning}
}

// CommID returns this communicator's context id: 0 for the world,
// unique per derived membership otherwise. Trace events and deadlock
// reports attribute sub-communicator traffic by this id.
func (c *Comm) CommID() int { return c.p.CommID() }

// buf wraps a user slice, or fabricates a phantom buffer of the given
// size when the world is phantom and the slice is nil.
func (c *Comm) buf(b []byte, size int) (buffer.Buf, error) {
	if b == nil && c.p.World().Phantom() {
		return buffer.Phantom(size), nil
	}
	if b == nil {
		return buffer.Buf{}, fmt.Errorf("bruckv: %w", ErrNilBuffer)
	}
	return buffer.FromBytes(b), nil
}

// UniformAlgorithm selects the MPI_Alltoall implementation for
// AlltoallWith. The variants are the paper's Figure 2 set.
type UniformAlgorithm int

const (
	// ZeroRotation is the paper's uniform contribution: no initial or
	// final rotation (the default used by Alltoall).
	ZeroRotation UniformAlgorithm = iota
	// BasicBruckAlg is the classic three-phase Bruck algorithm.
	BasicBruckAlg
	// ModifiedBruckAlg eliminates the final rotation.
	ModifiedBruckAlg
	// BasicBruckDT / ModifiedBruckDT / ZeroCopyBruckDT use emulated MPI
	// derived datatypes instead of explicit packing.
	BasicBruckDT
	ModifiedBruckDT
	ZeroCopyBruckDT
	// PairwiseExchange is the linear-time large-message baseline.
	PairwiseExchange
	// VendorUniform models a vendor MPI_Alltoall (Bruck for small
	// blocks, pairwise for large).
	VendorUniform
)

var uniformEnum = enumNames[UniformAlgorithm]{
	what: "uniform algorithm", goType: "UniformAlgorithm",
	names: map[UniformAlgorithm]string{
		ZeroRotation: "zerorotation", BasicBruckAlg: "basic", ModifiedBruckAlg: "modified",
		BasicBruckDT: "basic-dt", ModifiedBruckDT: "modified-dt", ZeroCopyBruckDT: "zerocopy-dt",
		PairwiseExchange: "pairwise", VendorUniform: "vendor-alltoall",
	},
}

// String returns the variant's registry name.
func (a UniformAlgorithm) String() string { return uniformEnum.format(a) }

// Alltoall performs a uniform all-to-all: block i of send (n bytes at
// offset i*n) is delivered to rank i, and recv block i receives from
// rank i. It uses the paper's zero-rotation Bruck.
func (c *Comm) Alltoall(send []byte, n int, recv []byte) error {
	return c.AlltoallWith(ZeroRotation, send, n, recv)
}

// AlltoallWith performs a uniform all-to-all with an explicit variant
// choice.
func (c *Comm) AlltoallWith(alg UniformAlgorithm, send []byte, n int, recv []byte) error {
	name, ok := uniformEnum.names[alg]
	if !ok {
		return fmt.Errorf("bruckv: uniform algorithm %d: %w", int(alg), ErrInvalidAlgorithm)
	}
	if n < 0 {
		return fmt.Errorf("bruckv: negative block size %d: %w", n, ErrInvalidLayout)
	}
	sb, err := c.buf(send, c.Size()*n)
	if err != nil {
		return err
	}
	rb, err := c.buf(recv, c.Size()*n)
	if err != nil {
		return err
	}
	return coll.UniformAlgorithms()[name](c.p, sb, n, rb)
}

// ExchangeCounts fills rcounts so that rcounts[s] on this rank equals
// scounts[thisRank] on rank s: the standard preparatory exchange before
// an Alltoallv whose receive sizes are not yet known.
func (c *Comm) ExchangeCounts(scounts, rcounts []int) error {
	return coll.CountsExchange(c.p, scounts, rcounts)
}

// Alltoallv performs a non-uniform all-to-all with the world's
// configured algorithm (see WithAlgorithm; default Auto).
func (c *Comm) Alltoallv(send []byte, scounts, sdispls []int,
	recv []byte, rcounts, rdispls []int) error {
	return c.AlltoallvWith(c.alg, send, scounts, sdispls, recv, rcounts, rdispls)
}

// validateLayout rejects malformed count/displacement arrays before
// they reach the rank goroutines, where they would otherwise surface as
// index-out-of-range panics. It returns the layout's span (the furthest
// extent of any block).
func validateLayout(P int, counts, displs []int, side string) (int, error) {
	if len(counts) != P || len(displs) != P {
		return 0, fmt.Errorf("bruckv: %s counts/displs must have length %d (got %d/%d): %w",
			side, P, len(counts), len(displs), ErrInvalidLayout)
	}
	span := 0
	for i, cnt := range counts {
		if cnt < 0 {
			return 0, fmt.Errorf("bruckv: negative %s count %d for rank %d: %w", side, cnt, i, ErrInvalidLayout)
		}
		if displs[i] < 0 {
			return 0, fmt.Errorf("bruckv: negative %s displacement %d for rank %d: %w", side, displs[i], i, ErrInvalidLayout)
		}
		// displs[i]+cnt can wrap past MaxInt (most plausibly on 32-bit
		// targets); a wrapped end would compare small and smuggle the
		// bogus block past the span check.
		if cnt > math.MaxInt-displs[i] {
			return 0, fmt.Errorf("bruckv: %s block for rank %d (displ %d + count %d) overflows the address space: %w",
				side, i, displs[i], cnt, ErrInvalidLayout)
		}
		if end := displs[i] + cnt; end > span {
			span = end
		}
	}
	return span, nil
}

// AlltoallvWith performs a non-uniform all-to-all with an explicit
// algorithm choice.
func (c *Comm) AlltoallvWith(alg Algorithm, send []byte, scounts, sdispls []int,
	recv []byte, rcounts, rdispls []int) error {
	if r, ok := algRadix(alg); ok && r < 2 {
		return fmt.Errorf("bruckv: two-phase radix %d < 2: %w", r, ErrInvalidRadix)
	}
	sTotal, err := validateLayout(c.Size(), scounts, sdispls, "send")
	if err != nil {
		return err
	}
	rTotal, err := validateLayout(c.Size(), rcounts, rdispls, "recv")
	if err != nil {
		return err
	}
	sb, err := c.buf(send, sTotal)
	if err != nil {
		return err
	}
	rb, err := c.buf(recv, rTotal)
	if err != nil {
		return err
	}
	var impl coll.Alltoallv
	if alg == Auto && c.tuning != nil {
		impl = coll.Auto(c.tuning)
	} else {
		impl = alg.impl()
	}
	if impl == nil {
		return fmt.Errorf("bruckv: algorithm %v has no Alltoallv implementation: %w", alg, ErrInvalidAlgorithm)
	}
	return impl(c.p, sb, scounts, sdispls, rb, rcounts, rdispls)
}

// Displacements returns the packed displacement array for counts plus
// the total byte count — the common layout helper.
func Displacements(counts []int) (displs []int, total int) {
	displs = make([]int, len(counts))
	for i, c := range counts {
		displs[i] = total
		total += c
	}
	return displs, total
}

// ensure the internal registry stays in sync with the enum.
var _ = func() struct{} {
	for _, name := range algEnum.names {
		if coll.NonUniformAlgorithms()[name] == nil {
			panic("bruckv: algorithm " + name + " missing from registry")
		}
	}
	return struct{}{}
}()
