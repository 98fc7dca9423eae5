package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
	"bruckv/internal/dist"
	"bruckv/internal/mpi"
)

// HostPerfConfig describes one host-performance sweep: every algorithm
// runs the same workload twice — once for a single collective call and
// once for Iters calls in the same world — and the per-call numbers are
// the difference divided by Iters-1, which cancels the O(P) per-run
// world setup and isolates the steady-state hot path.
type HostPerfConfig struct {
	// P is the number of simulated ranks (default 32; host performance
	// is per-call, so modest worlds suffice).
	P int
	// Spec generates the workload (default uniform, N=256, seed 1).
	Spec dist.Spec
	// Algorithms are keys of coll.NonUniformAlgorithms (default: all
	// registered, sorted).
	Algorithms []string
	// Iters is the long run's call count (default 16; must be >= 2).
	Iters int
	// Phantom drops real payloads. The default is real payloads — the
	// configuration where the transport pool matters; phantom mode
	// isolates bookkeeping allocations instead.
	Phantom bool
	// Runs is the Run count of the session-amortization measurement
	// (default 32; 0 keeps the default, negative disables the block).
	Runs int
	// Executor selects the runtime backend being profiled (default
	// goroutines).
	Executor mpi.Executor
}

func (c *HostPerfConfig) defaults() {
	if c.P <= 0 {
		c.P = 32
	}
	if c.Spec.Kind == 0 && c.Spec.N == 0 {
		c.Spec = dist.Spec{Kind: dist.Uniform, N: 256, Seed: 1}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = coll.Names(coll.NonUniformAlgorithms())
	}
	if c.Iters < 2 {
		c.Iters = 16
	}
	if c.Runs == 0 {
		c.Runs = 32
	}
}

// HostPerfRow is one algorithm's host-performance profile. The PerCall
// figures are steady-state (setup-cancelled); the Run block is the raw
// record of the long run.
type HostPerfRow struct {
	Algorithm string
	// WallNsPerCall, AllocsPerCall, and AllocBytesPerCall are the
	// long-run minus short-run deltas divided by Iters-1: the marginal
	// host cost of one more collective call, with world construction
	// and first-call warm-up cancelled out.
	WallNsPerCall     float64
	AllocsPerCall     float64
	AllocBytesPerCall float64
	// PoolHitRate and ScratchHitRate are the long run's recycling
	// rates: the fraction of payload-pool and scratch-arena Gets served
	// without allocating.
	PoolHitRate    float64
	ScratchHitRate float64
	// PoolOutstanding is the payload pool's Gets-Puts balance after the
	// long run; nonzero means a payload leaked.
	PoolOutstanding int64
	// Run is the raw host-performance record of the long (Iters-call)
	// run.
	Run mpi.RunStats
}

// HostPerfReport is the full host-performance table.
type HostPerfReport struct {
	Config HostPerfConfig
	Rows   []HostPerfRow
	// Amortization measures what the resident session runtime saves on
	// repeated Run calls; nil when the measurement is disabled
	// (Config.Runs < 0).
	Amortization *RunAmortization
	// Persistent measures what AlltoallvInit+Start saves per iteration
	// over fresh Alltoallv calls; nil when disabled (Config.Runs < 0).
	Persistent *PersistentAmortization
	// Executors compares the goroutine and event backends on the same
	// phantom workload; nil when disabled (Config.Runs < 0).
	Executors *ExecutorComparison
}

// PersistentAmortization is the persistent-collective amortization
// record: Iters exchanges of one fixed layout through a persistent
// handle (coll.AlltoallvInit once, then Start per iteration) against
// the same exchanges as fresh coll.Alltoallv calls, in one world each.
// The persistent path freezes the schedule and the metadata after its
// first exchange, so both the simulated cost (messages, virtual time)
// and the host cost (wall time, allocations) of an iteration drop.
type PersistentAmortization struct {
	P, Iters, Radix int
	// FreshVirtualNsPerCall / PersistentVirtualNsPerCall are the average
	// simulated times of one exchange (max over ranks, clock-synced
	// between iterations).
	FreshVirtualNsPerCall      float64
	PersistentVirtualNsPerCall float64
	// FreshMsgs / PersistentMsgs are the total point-to-point message
	// counts of the whole run; the gap is the metadata traffic the
	// frozen schedule stops paying.
	FreshMsgs      int64
	PersistentMsgs int64
	// FreshNsPerCall / PersistentNsPerCall and the Allocs figures are
	// per-iteration host wall time and allocator traffic.
	FreshNsPerCall          float64
	PersistentNsPerCall     float64
	FreshAllocsPerCall      float64
	PersistentAllocsPerCall float64
}

// VirtualNsSaved is the per-iteration simulated-time saving of the
// persistent path.
func (a PersistentAmortization) VirtualNsSaved() float64 {
	return a.FreshVirtualNsPerCall - a.PersistentVirtualNsPerCall
}

// RunAmortization is the session-amortization record: the per-Run host
// cost of a minimal (barrier-only) run on one resident world reused for
// Runs runs, against a fresh world constructed, run once, and closed,
// Runs times. The gap is the per-Run session setup — goroutine spawn,
// arena and mailbox construction — that resident workers pay once.
type RunAmortization struct {
	P    int
	Runs int
	// ResidentNsPerRun / ResidentAllocsPerRun are per-Run averages over
	// Runs reuses of one world (after one uncounted warm-up Run that
	// pays the session spawn).
	ResidentNsPerRun     float64
	ResidentAllocsPerRun float64
	// FreshNsPerRun / FreshAllocsPerRun are the same averages when each
	// Run gets its own world, counting NewWorld and Close with the Run.
	FreshNsPerRun     float64
	FreshAllocsPerRun float64
}

// SetupNsSaved is the per-Run host-time saving from reusing the
// session.
func (a RunAmortization) SetupNsSaved() float64 { return a.FreshNsPerRun - a.ResidentNsPerRun }

// measureAmortization times a barrier-only Run body both ways. Phantom
// payloads and the caller's model keep the collective itself as close
// to free as the runtime allows, so the difference is run setup. A
// fresh world's cost spans NewWorld, its Run and Close: the session
// spawn it pays happens before the Run's own RunStats clock starts.
// Resident and fresh samples alternate, so a slow spell on the host
// lands on both sides.
func measureAmortization(o Options, P, runs int) (*RunAmortization, error) {
	am := &RunAmortization{P: P, Runs: runs}
	body := func(p *mpi.Proc) error { p.Barrier(); return nil }
	w, err := mpi.NewWorld(P, mpi.WithModel(o.Model), mpi.WithPhantom())
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if err := w.Run(body); err != nil { // warm-up: pays the session spawn
		return nil, err
	}
	resident := func() error { return w.Run(body) }
	fresh := func() error {
		fw, err := mpi.NewWorld(P, mpi.WithModel(o.Model), mpi.WithPhantom())
		if err != nil {
			return err
		}
		defer fw.Close()
		return fw.Run(body)
	}
	for i := 0; i < runs; i++ {
		ns, mallocs, err := hostCost(resident)
		if err != nil {
			return nil, err
		}
		am.ResidentNsPerRun += ns
		am.ResidentAllocsPerRun += mallocs
		if ns, mallocs, err = hostCost(fresh); err != nil {
			return nil, err
		}
		am.FreshNsPerRun += ns
		am.FreshAllocsPerRun += mallocs
	}
	am.ResidentNsPerRun /= float64(runs)
	am.ResidentAllocsPerRun /= float64(runs)
	am.FreshNsPerRun /= float64(runs)
	am.FreshAllocsPerRun /= float64(runs)
	return am, nil
}

// hostCost returns the host wall time and heap allocation count of f.
func hostCost(f func() error) (ns, mallocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err = f()
	ns = float64(time.Since(start))
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs - m0.Mallocs), err
}

// measurePersistent runs Iters fixed-layout exchanges through a
// persistent handle and as fresh calls, in one world each, and reports
// the per-iteration gap. The fresh path runs the same radix the
// auto-initialized handle froze, so the difference is amortization —
// the frozen schedule and metadata — not algorithm choice.
func measurePersistent(o Options, cfg HostPerfConfig) (*PersistentAmortization, error) {
	am := &PersistentAmortization{P: cfg.P, Iters: cfg.Iters}
	P := cfg.P
	phantom := cfg.Phantom
	spec := cfg.Spec
	body := func(exchange func(p *mpi.Proc, send, recv buffer.Buf, sc, sd, rc, rd []int) error,
		finish func(p *mpi.Proc)) func(p *mpi.Proc) error {
		return func(p *mpi.Proc) error {
			sc := make([]int, P)
			rc := make([]int, P)
			sd := make([]int, P)
			rd := make([]int, P)
			spec.Counts(p.Rank(), P, sc, rc)
			sTotal := displsInto(sd, sc)
			rTotal := displsInto(rd, rc)
			send := buffer.Make(sTotal, phantom)
			recv := buffer.Make(rTotal, phantom)
			for it := 0; it < cfg.Iters; it++ {
				p.SyncClocks()
				if err := exchange(p, send, recv, sc, sd, rc, rd); err != nil {
					return err
				}
			}
			if finish != nil {
				finish(p)
			}
			return nil
		}
	}
	// Persistent path: one init, Iters starts.
	pw, err := mpi.NewWorld(P, mpi.WithModel(o.Model))
	if err != nil {
		return nil, err
	}
	defer pw.Close()
	var pVirtual float64
	var radix int
	err = pw.Run(func(p *mpi.Proc) error {
		var h *coll.PersistentV
		run := body(func(p *mpi.Proc, send, recv buffer.Buf, sc, sd, rc, rd []int) error {
			if h == nil {
				var err error
				if h, err = coll.AlltoallvInitAuto(p, nil, sc, sd, rc, rd); err != nil {
					return err
				}
			}
			t0 := p.Now()
			if err := h.Start(send, recv); err != nil {
				return err
			}
			if el := p.AllreduceMaxFloat64(p.Now() - t0); p.Rank() == 0 {
				pVirtual += el
			}
			return nil
		}, func(p *mpi.Proc) {
			if p.Rank() == 0 && h != nil {
				radix = h.Radix()
			}
			if h != nil {
				h.Free()
			}
		})
		return run(p)
	})
	if err != nil {
		return nil, err
	}
	pStats := pw.RunStats()
	am.PersistentMsgs = pw.TotalMessages()
	am.PersistentVirtualNsPerCall = pVirtual / float64(cfg.Iters)
	am.PersistentNsPerCall = float64(pStats.WallNs) / float64(cfg.Iters)
	am.PersistentAllocsPerCall = float64(pStats.Mallocs) / float64(cfg.Iters)
	am.Radix = radix

	// Fresh path: the same exchanges as independent calls of the same
	// radix, global-maximum Allreduce and all.
	fw, err := mpi.NewWorld(P, mpi.WithModel(o.Model))
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	alg := coll.TwoPhaseBruckRadix(radix)
	var fVirtual float64
	err = fw.Run(body(func(p *mpi.Proc, send, recv buffer.Buf, sc, sd, rc, rd []int) error {
		t0 := p.Now()
		if err := alg(p, send, sc, sd, recv, rc, rd); err != nil {
			return err
		}
		if el := p.AllreduceMaxFloat64(p.Now() - t0); p.Rank() == 0 {
			fVirtual += el
		}
		return nil
	}, nil))
	if err != nil {
		return nil, err
	}
	fStats := fw.RunStats()
	am.FreshMsgs = fw.TotalMessages()
	am.FreshVirtualNsPerCall = fVirtual / float64(cfg.Iters)
	am.FreshNsPerCall = float64(fStats.WallNs) / float64(cfg.Iters)
	am.FreshAllocsPerCall = float64(fStats.Mallocs) / float64(cfg.Iters)
	return am, nil
}

// ExecutorComparison is the backend face-off: the same phantom
// workload measured once per execution backend. The virtual completion
// time is asserted bit-identical (it is a pure function of message
// flow), so the rows differ only in what the simulation costs the
// host: the goroutine backend pays a resident stack per rank, the
// event backend a bounded worker pool plus scheduler bookkeeping.
type ExecutorComparison struct {
	P, Iters int
	// VirtualNs is the shared simulated completion time (median over
	// iterations), identical on both backends by construction.
	VirtualNs float64
	// GoroutinesNsPerCall / EventsNsPerCall are host wall time per
	// collective call; the Allocs figures are allocator traffic per
	// call.
	GoroutinesNsPerCall     float64
	EventsNsPerCall         float64
	GoroutinesAllocsPerCall float64
	EventsAllocsPerCall     float64
}

// measureExecutors runs one phantom two-phase workload per backend.
func measureExecutors(o Options, cfg HostPerfConfig) (*ExecutorComparison, error) {
	ec := &ExecutorComparison{P: cfg.P, Iters: cfg.Iters}
	run := func(e mpi.Executor) (Result, error) {
		return RunMicro(MicroConfig{
			P:         cfg.P,
			Algorithm: "two-phase",
			Spec:      cfg.Spec,
			Model:     o.Model,
			Iters:     cfg.Iters,
			Executor:  e,
		})
	}
	rg, err := run(mpi.ExecutorGoroutines)
	if err != nil {
		return nil, err
	}
	re, err := run(mpi.ExecutorEvents)
	if err != nil {
		return nil, err
	}
	if rg.Summary.Median != re.Summary.Median {
		return nil, fmt.Errorf("bench: executor backends disagree on virtual time: goroutines %v, events %v",
			rg.Summary.Median, re.Summary.Median)
	}
	ec.VirtualNs = rg.Summary.Median
	span := float64(cfg.Iters)
	ec.GoroutinesNsPerCall = float64(rg.Host.WallNs) / span
	ec.EventsNsPerCall = float64(re.Host.WallNs) / span
	ec.GoroutinesAllocsPerCall = float64(rg.Host.Mallocs) / span
	ec.EventsAllocsPerCall = float64(re.Host.Mallocs) / span
	return ec, nil
}

// HostPerf measures the host-side cost of every configured Alltoallv
// algorithm: wall time, allocator traffic, GC work, and transport-pool
// recycling. Virtual timings are unaffected by any of this — the report
// is about what the simulation costs the machine running it.
func HostPerf(o Options, cfg HostPerfConfig) (HostPerfReport, error) {
	o = o.withDefaults()
	cfg.defaults()
	rep := HostPerfReport{Config: cfg}
	measure := func(alg string, iters int) (mpi.RunStats, error) {
		res, err := RunMicro(MicroConfig{
			P:         cfg.P,
			Algorithm: alg,
			Spec:      cfg.Spec,
			Model:     o.Model,
			Iters:     iters,
			Real:      !cfg.Phantom,
			Executor:  cfg.Executor,
		})
		if err != nil {
			return mpi.RunStats{}, err
		}
		return res.Host, nil
	}
	for _, alg := range cfg.Algorithms {
		short, err := measure(alg, 1)
		if err != nil {
			return rep, fmt.Errorf("bench: hostperf short run of %q: %w", alg, err)
		}
		long, err := measure(alg, cfg.Iters)
		if err != nil {
			return rep, fmt.Errorf("bench: hostperf long run of %q: %w", alg, err)
		}
		span := float64(cfg.Iters - 1)
		row := HostPerfRow{
			Algorithm:         alg,
			WallNsPerCall:     float64(long.WallNs-short.WallNs) / span,
			AllocsPerCall:     float64(int64(long.Mallocs)-int64(short.Mallocs)) / span,
			AllocBytesPerCall: float64(int64(long.AllocBytes)-int64(short.AllocBytes)) / span,
			PoolHitRate:       long.Pool.HitRate(),
			ScratchHitRate:    long.Scratch.HitRate(),
			PoolOutstanding:   long.Pool.Outstanding(),
			Run:               long,
		}
		rep.Rows = append(rep.Rows, row)
		o.progress("hostperf %-15s P=%-5d allocs/call %.0f bytes/call %.0f pool %.0f%% scratch %.0f%%",
			alg, cfg.P, row.AllocsPerCall, row.AllocBytesPerCall,
			100*row.PoolHitRate, 100*row.ScratchHitRate)
	}
	if cfg.Runs > 0 {
		am, err := measureAmortization(o, cfg.P, cfg.Runs)
		if err != nil {
			return rep, fmt.Errorf("bench: hostperf amortization: %w", err)
		}
		rep.Amortization = am
		o.progress("hostperf amortization P=%-5d resident %.1fus/run fresh %.1fus/run",
			cfg.P, am.ResidentNsPerRun/1e3, am.FreshNsPerRun/1e3)
		pam, err := measurePersistent(o, cfg)
		if err != nil {
			return rep, fmt.Errorf("bench: hostperf persistent amortization: %w", err)
		}
		rep.Persistent = pam
		o.progress("hostperf persistent   P=%-5d r=%d persistent %.1fus/call (%.0fns virt) fresh %.1fus/call (%.0fns virt)",
			cfg.P, pam.Radix, pam.PersistentNsPerCall/1e3, pam.PersistentVirtualNsPerCall,
			pam.FreshNsPerCall/1e3, pam.FreshVirtualNsPerCall)
		ec, err := measureExecutors(o, cfg)
		if err != nil {
			return rep, fmt.Errorf("bench: hostperf executor comparison: %w", err)
		}
		rep.Executors = ec
		o.progress("hostperf executors    P=%-5d goroutines %.1fus/call events %.1fus/call (virtual %.0fns both)",
			cfg.P, ec.GoroutinesNsPerCall/1e3, ec.EventsNsPerCall/1e3, ec.VirtualNs)
	}
	return rep, nil
}

// Fprint renders the host-performance table: one row per algorithm with
// steady-state per-call cost and pool recycling rates.
func (r HostPerfReport) Fprint(w io.Writer) {
	c := r.Config
	mode := "real"
	if c.Phantom {
		mode = "phantom"
	}
	fmt.Fprintf(w, "# hostperf — host-side cost per collective call: P=%d, %s, %s payloads, %d iters\n",
		c.P, c.Spec, mode, c.Iters)
	rows := [][]string{{"algorithm", "wall/call (us)", "allocs/call", "KiB/call", "pool hit", "scratch hit", "leaked"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Algorithm,
			fmt.Sprintf("%.1f", row.WallNsPerCall/1e3),
			fmt.Sprintf("%.0f", row.AllocsPerCall),
			fmt.Sprintf("%.1f", row.AllocBytesPerCall/1024),
			fmt.Sprintf("%.1f%%", 100*row.PoolHitRate),
			fmt.Sprintf("%.1f%%", 100*row.ScratchHitRate),
			fmt.Sprintf("%d", row.PoolOutstanding),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintf(w, "  (per-call figures subtract a 1-call run from a %d-call run, cancelling world setup)\n",
		c.Iters)
	if a := r.Amortization; a != nil {
		fmt.Fprintf(w, "  run-setup amortization over %d runs: resident world %.1f us/run (%.0f allocs), fresh world %.1f us/run (%.0f allocs), %.1f us/run saved\n",
			a.Runs, a.ResidentNsPerRun/1e3, a.ResidentAllocsPerRun,
			a.FreshNsPerRun/1e3, a.FreshAllocsPerRun, a.SetupNsSaved()/1e3)
	}
	if a := r.Persistent; a != nil {
		fmt.Fprintf(w, "  persistent collective (two-phase r=%d, %d iters): AlltoallvInit+Start %.1f us/call (%.0f allocs, %.0f ns virtual), fresh Alltoallv %.1f us/call (%.0f allocs, %.0f ns virtual), %.0f ns virtual and %d msgs saved total\n",
			a.Radix, a.Iters,
			a.PersistentNsPerCall/1e3, a.PersistentAllocsPerCall, a.PersistentVirtualNsPerCall,
			a.FreshNsPerCall/1e3, a.FreshAllocsPerCall, a.FreshVirtualNsPerCall,
			a.VirtualNsSaved(), a.FreshMsgs-a.PersistentMsgs)
	}
	if e := r.Executors; e != nil {
		fmt.Fprintf(w, "  executor backends (phantom two-phase, %d iters): goroutines %.1f us/call (%.0f allocs), events %.1f us/call (%.0f allocs), virtual time identical at %.0f ns\n",
			e.Iters, e.GoroutinesNsPerCall/1e3, e.GoroutinesAllocsPerCall,
			e.EventsNsPerCall/1e3, e.EventsAllocsPerCall, e.VirtualNs)
	}
	fmt.Fprintln(w)
}

// WriteJSON writes the report as indented JSON, the format recorded as
// BENCH_hostperf.json.
func (r HostPerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
