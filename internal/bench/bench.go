// Package bench is the experiment harness: it runs the paper's
// microbenchmark configurations on the simulated runtime, aggregates
// iterations the way the paper does (median with MAD error bars), and
// renders each figure of the evaluation as a text table.
package bench

import (
	"fmt"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
	"bruckv/internal/dist"
	"bruckv/internal/fault"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
	"bruckv/internal/stats"
	"bruckv/internal/trace"
)

// MicroConfig describes one non-uniform all-to-all measurement.
type MicroConfig struct {
	// P is the number of simulated ranks.
	P int
	// Algorithm is a key of coll.NonUniformAlgorithms, or a
	// parameterized radix name "two-phase-r<r>" (r >= 2).
	Algorithm string
	// Spec generates the block-size workload; its seed is re-derived per
	// iteration so iterations see fresh, reproducible workloads.
	Spec dist.Spec
	// Model prices communication (default machine.Theta()).
	Model machine.Model
	// Iters is the number of timed iterations (default 5).
	Iters int
	// Real disables phantom payloads (uses real memory; only sensible
	// for small P).
	Real bool
	// RanksPerNode places consecutive ranks on shared-memory nodes
	// (default 1: all traffic inter-node).
	RanksPerNode int
	// Trace records a virtual-timeline event log; the Result then
	// carries the trace and its per-step roll-ups. Step byte/message
	// counts accumulate over all iterations; step times are only
	// meaningful with Iters=1.
	Trace bool
	// Faults, if non-nil, installs a deterministic perturbation plan
	// (stragglers + message jitter) on the world; see internal/fault.
	Faults *fault.Plan
	// Deadline, if positive, arms the runtime's wall-clock watchdog so
	// a hung configuration aborts with a blocked-rank report instead of
	// wedging the harness.
	Deadline time.Duration
	// Executor selects the runtime's execution backend (default
	// goroutines); both backends give bit-identical virtual timings,
	// so this only changes host cost.
	Executor mpi.Executor
	// Tuning, if non-nil, is an empirical calibration table consulted by
	// the "auto" algorithm (ignored for every other Algorithm).
	Tuning *coll.Table
}

// Result is the outcome of a measurement.
type Result struct {
	Times        []float64 // per-iteration global times, ns
	Summary      stats.Summary
	Phases       map[string]float64 // per-iteration average, ns
	BytesPerRank float64            // average wire bytes per rank per iteration
	MsgsPerRank  float64
	// Trace is the event log of the run, nil unless MicroConfig.Trace
	// was set. Steps is its per-step roll-up (see trace.StepStats).
	Trace *trace.Trace
	Steps []trace.StepStat
	// Host is the host-side performance of the whole measurement run:
	// wall time, allocator and GC activity, and transport pool traffic.
	// All iterations share one run, so divide by Iters for per-call
	// figures (see HostPerf for a setup-cancelling report).
	Host mpi.RunStats
}

func (c *MicroConfig) defaults() error {
	if c.P < 1 {
		return fmt.Errorf("bench: P=%d < 1", c.P)
	}
	if c.Model.Name == "" {
		c.Model = machine.Theta()
	}
	if c.Iters <= 0 {
		c.Iters = 5
	}
	return c.Spec.Validate()
}

// RunMicro executes the configuration and returns aggregate results.
func RunMicro(cfg MicroConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	alg, ok := coll.ResolveNonUniform(cfg.Algorithm)
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown algorithm %q (have %v and two-phase-r<r>)",
			cfg.Algorithm, coll.Names(coll.NonUniformAlgorithms()))
	}
	if cfg.Algorithm == "auto" && cfg.Tuning != nil {
		alg = coll.Auto(cfg.Tuning)
	}
	opts := []mpi.Option{mpi.WithModel(cfg.Model)}
	if !cfg.Real {
		opts = append(opts, mpi.WithPhantom())
	}
	if cfg.RanksPerNode > 1 {
		opts = append(opts, mpi.WithRanksPerNode(cfg.RanksPerNode))
	}
	if cfg.Trace {
		opts = append(opts, mpi.WithTrace())
	}
	if cfg.Faults != nil {
		opts = append(opts, mpi.WithFaults(*cfg.Faults))
	}
	if cfg.Deadline > 0 {
		opts = append(opts, mpi.WithDeadline(cfg.Deadline))
	}
	if cfg.Executor != mpi.ExecutorGoroutines {
		opts = append(opts, mpi.WithExecutor(cfg.Executor))
	}
	w, err := mpi.NewWorld(cfg.P, opts...)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	P := cfg.P
	times := make([]float64, cfg.Iters)
	err = w.Run(func(p *mpi.Proc) error {
		sc := make([]int, P)
		rc := make([]int, P)
		sd := make([]int, P)
		rd := make([]int, P)
		for it := 0; it < cfg.Iters; it++ {
			spec := cfg.Spec.WithIteration(it)
			spec.Counts(p.Rank(), P, sc, rc)
			sTotal := displsInto(sd, sc)
			rTotal := displsInto(rd, rc)
			send := buffer.Make(sTotal, !cfg.Real)
			recv := buffer.Make(rTotal, !cfg.Real)
			p.SyncClocks()
			t0 := p.Now()
			if err := alg(p, send, sc, sd, recv, rc, rd); err != nil {
				return err
			}
			el := p.AllreduceMaxFloat64(p.Now() - t0)
			if p.Rank() == 0 {
				times[it] = el
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Times:        times,
		Summary:      stats.Summarize(times),
		Phases:       scalePhases(w.MaxPhase(), cfg.Iters),
		BytesPerRank: float64(w.TotalBytes()) / float64(P) / float64(cfg.Iters),
		MsgsPerRank:  float64(w.TotalMessages()) / float64(P) / float64(cfg.Iters),
		Host:         w.RunStats(),
	}
	if tr := w.Trace(); tr != nil {
		res.Trace = tr
		res.Steps = tr.StepStats()
	}
	return res, nil
}

// UniformConfig describes one uniform all-to-all measurement (Figure 2).
type UniformConfig struct {
	P int
	// Algorithm is a key of coll.UniformAlgorithms.
	Algorithm string
	// N is the block size in bytes.
	N     int
	Model machine.Model
	Iters int
	Real  bool
}

// RunUniform executes a uniform configuration.
func RunUniform(cfg UniformConfig) (Result, error) {
	if cfg.P < 1 {
		return Result{}, fmt.Errorf("bench: P=%d < 1", cfg.P)
	}
	if cfg.N < 0 {
		return Result{}, fmt.Errorf("bench: N=%d < 0", cfg.N)
	}
	if cfg.Model.Name == "" {
		cfg.Model = machine.Theta()
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	alg, ok := coll.UniformAlgorithms()[cfg.Algorithm]
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown uniform algorithm %q (have %v)",
			cfg.Algorithm, coll.Names(coll.UniformAlgorithms()))
	}
	opts := []mpi.Option{mpi.WithModel(cfg.Model)}
	if !cfg.Real {
		opts = append(opts, mpi.WithPhantom())
	}
	w, err := mpi.NewWorld(cfg.P, opts...)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	times := make([]float64, cfg.Iters)
	err = w.Run(func(p *mpi.Proc) error {
		send := buffer.Make(cfg.P*cfg.N, !cfg.Real)
		recv := buffer.Make(cfg.P*cfg.N, !cfg.Real)
		for it := 0; it < cfg.Iters; it++ {
			p.SyncClocks()
			t0 := p.Now()
			if err := alg(p, send, cfg.N, recv); err != nil {
				return err
			}
			el := p.AllreduceMaxFloat64(p.Now() - t0)
			if p.Rank() == 0 {
				times[it] = el
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Times:        times,
		Summary:      stats.Summarize(times),
		Phases:       scalePhases(w.MaxPhase(), cfg.Iters),
		BytesPerRank: float64(w.TotalBytes()) / float64(cfg.P) / float64(cfg.Iters),
		MsgsPerRank:  float64(w.TotalMessages()) / float64(cfg.P) / float64(cfg.Iters),
		Host:         w.RunStats(),
	}, nil
}

// displsInto fills d with the packed displacements of counts and returns
// the total.
func displsInto(d, counts []int) int {
	off := 0
	for i, c := range counts {
		d[i] = off
		off += c
	}
	return off
}

func scalePhases(ph map[string]float64, iters int) map[string]float64 {
	out := make(map[string]float64, len(ph))
	for k, v := range ph {
		out[k] = v / float64(iters)
	}
	return out
}
