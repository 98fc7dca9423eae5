// Command bruckbench regenerates the paper's microbenchmark figures
// (2a, 2b, 6, 7, 8, 9, 10, 13) on the simulated runtime.
//
// Usage:
//
//	bruckbench -fig all                     # everything, default scales
//	bruckbench -fig 6 -ps 128,1024 -maxsimp 1024
//	bruckbench -fig 9 -iters 3 -progress
//	bruckbench -fig steps -alg two-phase -ps 256 -ns 512
//	bruckbench -trace out.json -alg two-phase -ps 256
//	bruckbench -fig chaos -ps 128
//	bruckbench -trace out.json -alg two-phase -ps 128 -faults stragglers=2,slowdown=4,jitter=0.25
//	bruckbench -fig auto -ps 64,128,256,512
//	bruckbench -calibrate tuning.json -ps 64,128,256
//	bruckbench -fig hostperf -hostperf-out BENCH_hostperf.json
//
// -fig auto runs the auto-selection study: every algorithm AlgAuto
// chooses among plus AlgAuto itself (analytic, and tuned with the
// calibration table built from the sweep), on the three machine
// models, reporting per-cell ratios against the measured best.
// -calibrate sweeps the candidates on one machine (-machine) and
// persists the per-cell winner table as JSON for bruckv.ReadTuning;
// -radices widens the two-phase radix axis of the sweep (e.g.
// -radices 2,4,8,16), whose winners Auto then dispatches from the
// table.
//
// Simulated process counts are bounded by -maxsimp; larger configured
// counts are filled from the calibrated analytic model and marked '*' in
// the output.
//
// -trace runs one traced exchange (algorithm -alg, P from -ps, max
// block size from -ns), writes its virtual timeline as Chrome
// trace_event JSON — open in chrome://tracing or Perfetto — and prints
// the per-step roll-up.
//
// -faults installs a deterministic perturbation plan (seeded straggler
// ranks, per-message jitter, message loss/duplication/corruption, and
// rank crashes, see internal/fault) on the traced exchange;
// -fault-seed overrides the plan's seed, and the -loss, -dup,
// -corrupt, and -crash flags merge individual reliability faults into
// the plan without spelling out a full spec. -fig chaos sweeps every
// registered Alltoallv algorithm across a fault grid and prints a
// straggler-sensitivity table of faulted/clean completion-time ratios.
// -fig loss does the same across message loss rates: every fault is
// recovered by the reliable transport's priced retransmissions, so the
// table compares each algorithm's recovery overhead at matched volume
// (e.g. `bruckbench -fig loss -ps 128` or `-fig loss -loss 0.1 -dup
// 0.05`).
//
// -fig hostperf measures what each Alltoallv algorithm costs the
// simulating host per collective call — wall time, heap allocations,
// and transport buffer-pool recycling rates — by differencing a long
// run against a one-call run so world setup cancels. -hostperf-out
// additionally records the report as JSON (BENCH_hostperf.json in this
// repository). Host performance is observational: virtual timings are
// bit-identical with or without it.
//
// -cpuprofile and -memprofile write a CPU profile and an allocation
// profile of the whole run, for `go tool pprof`; they do not change the
// output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"bruckv/internal/bench"
	"bruckv/internal/dist"
	"bruckv/internal/fault"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 2a,2b,6,7,8,9,10,13,steps,chaos,loss,auto,hostperf,scale,families,all")
		psFlag   = flag.String("ps", "", "comma-separated process counts (default: per-figure)")
		nsFlag   = flag.String("ns", "", "comma-separated max block sizes in bytes")
		iters    = flag.Int("iters", 5, "iterations per configuration (paper: 20)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		maxSimP  = flag.Int("maxsimp", 1024, "largest fully simulated process count")
		mach     = flag.String("machine", "theta", "machine model: theta,cori,stampede,zero")
		progress = flag.Bool("progress", false, "print per-configuration progress to stderr")
		csvDir   = flag.String("csv", "", "also write each figure as CSV into this directory")
		traceOut = flag.String("trace", "", "run one traced exchange and write Chrome trace_event JSON to this file")
		alg      = flag.String("alg", "two-phase", "algorithm for -trace / -fig steps")
		rpn      = flag.Int("rpn", 1, "ranks per node for -trace / -fig steps (hierarchical needs >1)")
		faults   = flag.String("faults", "", "fault plan for -trace / -fig steps / -fig chaos, e.g. stragglers=2,slowdown=4,jitter=0.25,loss=0.05")
		fseed    = flag.Uint64("fault-seed", 0, "override the fault plan's seed (0: keep the plan's own)")
		loss     = flag.Float64("loss", 0, "per-attempt message loss probability in [0,1), merged into the fault plan")
		dup      = flag.Float64("dup", 0, "per-attempt ack-loss (duplicate delivery) probability in [0,1), merged into the fault plan")
		corrupt  = flag.Float64("corrupt", 0, "per-attempt message corruption probability in [0,1), merged into the fault plan")
		crash    = flag.String("crash", "", "rank@ns crash events separated by ':' (e.g. 3@0:7@5000), merged into the fault plan")
		calOut   = flag.String("calibrate", "", "sweep the auto candidates and write the winner table as JSON to this file")
		radices  = flag.String("radices", "", "comma-separated two-phase radices for -calibrate / -fig auto (default: 2,4,8)")
		hpOut    = flag.String("hostperf-out", "", "also write the -fig hostperf report as JSON to this file")
		execName = flag.String("executor", "goroutines", "runtime execution backend: goroutines or events")
		scaleMax = flag.Int("scale-max", 262144, "largest process count of the -fig scale log-collective sweep")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the whole run to this file on exit")
	)
	flag.Parse()
	if *cpuProf != "" {
		fh, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(fh))
		defer func() {
			pprof.StopCPUProfile()
			check(fh.Close())
		}()
	}
	if *memProf != "" {
		defer writeMemProfile(*memProf)
	}

	model, ok := machine.Presets()[*mach]
	if !ok {
		fatalf("unknown machine %q", *mach)
	}
	var progW io.Writer
	if *progress {
		progW = os.Stderr
	}
	executor, err := mpi.ParseExecutor(*execName)
	if err != nil {
		fatalf("%v", err)
	}
	o := bench.Options{Model: model, Iters: *iters, Seed: *seed, MaxSimP: *maxSimP, Progress: progW, Executor: executor}
	o.Radices = parseInts(*radices)
	for _, r := range o.Radices {
		if r < 2 {
			fatalf("-radices: radix %d < 2", r)
		}
	}
	plan, err := fault.Parse(*faults)
	if err != nil {
		fatalf("%v", err)
	}
	if *fseed != 0 {
		plan.Seed = *fseed
	}
	// The dedicated reliability flags merge into (and override) the
	// -faults plan, so `-loss 0.05` works alone or alongside a spec.
	if *loss != 0 {
		plan.Loss = *loss
	}
	if *dup != 0 {
		plan.Dup = *dup
	}
	if *corrupt != 0 {
		plan.Corrupt = *corrupt
	}
	if *crash != "" {
		crashPlan, err := fault.Parse("crash=" + *crash)
		if err != nil {
			fatalf("-crash: %v", err)
		}
		plan.Crashes = crashPlan.Crashes
	}
	if err := plan.Validate(); err != nil {
		fatalf("%v", err)
	}
	if plan.Enabled() {
		o.Faults = &plan
	}
	ps := parseInts(*psFlag)
	ns := parseInts(*nsFlag)

	runSteps := func() bench.StepsReport {
		p, n := 256, 64
		if len(ps) > 0 {
			p = ps[0]
		}
		if len(ns) > 0 {
			n = ns[0]
		}
		spec := dist.Spec{Kind: dist.Uniform, N: n, Seed: *seed}
		r, err := bench.Steps(o, *alg, p, spec, *rpn)
		check(err)
		return r
	}
	if *calOut != "" {
		table, err := bench.Calibrate(o, ps, ns)
		check(err)
		fh, err := os.Create(*calOut)
		check(err)
		check(table.Encode(fh))
		check(fh.Close())
		fmt.Printf("wrote %s (%d cells, machine %s) — load with bruckv.ReadTuning\n",
			*calOut, len(table.Cells), table.Machine)
		return
	}
	if *traceOut != "" {
		r := runSteps()
		fh, err := os.Create(*traceOut)
		check(err)
		check(r.Trace.WriteChrome(fh))
		check(fh.Close())
		r.Fprint(os.Stdout)
		fmt.Printf("wrote %s (%d events) — open in chrome://tracing or Perfetto\n", *traceOut, r.Trace.NumEvents())
		return
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	out := os.Stdout
	emit := func(f bench.Figure) {
		f.Fprint(out)
		if *csvDir != "" {
			fh, err := os.Create(*csvDir + "/" + f.ID + ".csv")
			check(err)
			f.CSV(fh)
			check(fh.Close())
		}
	}

	if all || want["2a"] {
		f, err := bench.Fig2a(o, ps)
		check(err)
		emit(f)
	}
	if all || want["2b"] {
		f, err := bench.Fig2b(o, ps)
		check(err)
		emit(f)
	}
	if all || want["6"] {
		figs, err := bench.Fig6(o, ps, ns)
		check(err)
		for _, f := range figs {
			emit(f)
		}
	}
	if all || want["7"] {
		for _, n := range []int{64, 512} {
			f, err := bench.Fig7(o, n, ps)
			check(err)
			emit(f)
		}
	}
	if all || want["8"] {
		p := 4096
		if len(ps) > 0 {
			p = ps[0]
		}
		if p > o.MaxSimP {
			p = o.MaxSimP
			fmt.Fprintf(out, "note: fig8 process count clamped to -maxsimp=%d (paper uses 4096)\n", p)
		}
		figs, err := bench.Fig8(o, p, ns, nil)
		check(err)
		for _, f := range figs {
			emit(f)
		}
	}
	if all || want["9"] {
		r, err := bench.Fig9(o, ps, ns)
		check(err)
		r.Fprint(out)
	}
	if all || want["10"] {
		figs, err := bench.Fig10(o, ps, ns)
		check(err)
		for _, f := range figs {
			emit(f)
		}
	}
	if all || want["13"] {
		figs, err := bench.Fig13(o, ps)
		check(err)
		for _, f := range figs {
			emit(f)
		}
	}
	if want["steps"] {
		runSteps().Fprint(out)
	}
	if all || want["auto"] {
		results, err := bench.FigAuto(o, ps, ns)
		check(err)
		for _, r := range results {
			r.Fprint(out)
		}
	}
	if want["chaos"] {
		cfg := bench.ChaosConfig{Slowdown: plan.Slowdown}
		if len(ps) > 0 {
			cfg.P = ps[0]
		}
		if len(ns) > 0 {
			cfg.Spec = dist.Spec{Kind: dist.Uniform, N: ns[0], Seed: *seed}
		}
		r, err := bench.Chaos(o, cfg)
		check(err)
		r.Fprint(out)
	}
	if want["loss"] {
		cfg := bench.LossConfig{Dup: plan.Dup, Corrupt: plan.Corrupt}
		if plan.Loss > 0 {
			cfg.Rates = []float64{plan.Loss}
		}
		if len(ps) > 0 {
			cfg.P = ps[0]
		}
		if len(ns) > 0 {
			cfg.Spec = dist.Spec{Kind: dist.Uniform, N: ns[0], Seed: *seed}
		}
		r, err := bench.Loss(o, cfg)
		check(err)
		r.Fprint(out)
	}
	if want["scale"] {
		cfg := bench.ScaleConfig{Executor: executor, MaxP: *scaleMax}
		if *execName == "goroutines" && !flagSet("executor") {
			// The sweep exists to exercise the event backend; default
			// there unless the user explicitly asked for goroutines.
			cfg.Executor = mpi.ExecutorEvents
		}
		if len(ps) > 0 {
			cfg.Ps = ps
		}
		if len(ns) > 0 {
			cfg.Spec = dist.Spec{Kind: dist.Uniform, N: ns[0], Seed: *seed}
		}
		r, err := bench.Scale(o, cfg)
		check(err)
		r.Fprint(out)
	}
	if want["families"] {
		// For this figure -ns is the total volume per call (the full
		// gathered result / reduced vector), not a per-block size.
		cfg := bench.FamiliesConfig{Executor: executor}
		if len(ps) > 0 {
			cfg.Ps = ps
		}
		if len(ns) > 0 {
			cfg.Ns = ns
		}
		r, err := bench.Families(o, cfg)
		check(err)
		r.Fprint(out)
	}
	if want["hostperf"] {
		cfg := bench.HostPerfConfig{}
		if len(ps) > 0 {
			cfg.P = ps[0]
		}
		if len(ns) > 0 {
			cfg.Spec = dist.Spec{Kind: dist.Uniform, N: ns[0], Seed: *seed}
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "iters" {
				cfg.Iters = *iters
			}
		})
		r, err := bench.HostPerf(o, cfg)
		check(err)
		r.Fprint(out)
		if *hpOut != "" {
			fh, err := os.Create(*hpOut)
			check(err)
			check(r.WriteJSON(fh))
			check(fh.Close())
			fmt.Printf("wrote %s (%d algorithms)\n", *hpOut, len(r.Rows))
		}
	}
	if all || want["ext"] {
		p := 256
		if len(ps) > 0 {
			p = ps[0]
		}
		f, err := bench.ExtRadix(o, p, ns)
		check(err)
		emit(f)
		f, err = bench.ExtNodeAware(o, p, 16, nil)
		check(err)
		emit(f)
	}
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatalf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out
}

// writeMemProfile writes the allocation profile (what `go test
// -memprofile` writes) after a collection, so it is current.
func writeMemProfile(path string) {
	fh, err := os.Create(path)
	check(err)
	runtime.GC()
	check(pprof.Lookup("allocs").WriteTo(fh, 0))
	check(fh.Close())
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bruckbench: "+format+"\n", args...)
	os.Exit(1)
}
