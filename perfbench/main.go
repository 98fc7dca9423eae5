// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the library, the applications, or the
// bruckd service for a fixed time, checks every output against an
// oracle computed apart from the code under test, and prints its
// metrics as one JSON line.
//
// Usage (from the repository root, see perfbench/README.md):
//
//	bash perfbench/run.sh --workload a2av-small-real --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same workload runs once untraced and
// once with spans recorded around every layer call the benchmark
// makes; the per-layer metrics come from the traced run, and the spans
// are written to .perfbench/trace-<workload>-seed<seed>.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"bruckv"
)

// metric is one reported quantity and its unit; BENCHMARK.json lists
// the same names and units.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// every workload with tracing off. An operation is one Alltoallv call
// (a World.Run), one fixpoint solve, or one bruckd job.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"virtual_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run.
var perLayer = []metric{
	{"mpi.new_world_ms", "ms"},
	{"mpi.run_roundtrip_us", "us"},
	{"mpi.send_recv_ns_per_msg", "ns"},
	{"mpi.allocs_per_msg", "count"},
	{"mpi.events_us_per_call", "us"},
	{"mpi.events_heap_kb_per_rank", "KB"},
	{"coll.auto_us_per_call", "us"},
	{"coll.pick_us_per_call", "us"},
	{"coll.two_phase_us_per_call", "us"},
	{"coll.persistent_init_us", "us"},
	{"coll.persistent_start_us", "us"},
	{"coll.nonblocking_us_per_call", "us"},
	{"coll.msgs_per_call", "count"},
	{"coll.bytes_per_call", "B"},
	{"buffer.allocs_per_call", "count"},
	{"buffer.alloc_kb_per_call", "KB"},
	{"buffer.pool_hit_rate", "ratio"},
	{"buffer.scratch_hit_rate", "ratio"},
	{"buffer.gc_pause_ms", "ms"},
	{"machine.pred_err_pct", "%"},
	{"ra.exchange_us", "us"},
	{"ra.insert_ns_per_tuple", "ns"},
	{"ra.probe_ns_per_tuple", "ns"},
	{"graph.tc_chain_s", "s"},
	{"graph.tc_dense_s", "s"},
	{"kcfa.solve_s", "s"},
	{"graph.tc_chain_iters", "count"},
	{"graph.tc_dense_iters", "count"},
	{"kcfa.iters", "count"},
	{"graph.tc_chain_comm_pct", "%"},
	{"graph.tc_dense_comm_pct", "%"},
	{"kcfa.comm_pct", "%"},
	{"service.http_overhead_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.submit_direct_ms", "ms"},
	{"service.lossy_run_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"tail.op_p90_ms", "ms"},
	{"span.op_self_us", "us"},
	{"span.entry_self_us", "us"},
	{"span.layer_self_us", "us"},
	{"trace.overhead_pct", "%"},
}

// env is what a workload run is given: its seed, how long to measure,
// and the tracer to record spans into.
type env struct {
	seed    uint64
	seconds float64
	tr      *tracer
}

// result is one workload run's outcome.
type result struct {
	setupS    float64
	latency   map[string][]float64 // operation latencies in ns, by kind of operation
	opsPerS   float64              // median over slices of the run (passes, rounds, or time slices)
	virtualMs float64
	heapMB    float64 // mean heap in use over the measured window
	attempted int
	failures  map[string]int // failed operations by fault name
	wrong     []string       // checks that did not hold
	layer     map[string]float64
}

func newResult() *result {
	return &result{failures: map[string]int{}, layer: map[string]float64{}, latency: map[string][]float64{}}
}

// latencyMs is the p-th percentile of each kind's latencies, averaged
// over the kinds, in ms. Every kind is a fixed share of the operations,
// so this is steady where one percentile of the pooled, multimodal
// samples would jump between modes.
func (r *result) latencyMs(p float64) float64 {
	var sum float64
	for _, xs := range r.latency {
		sum += percentile(xs, p)
	}
	return sum / float64(len(r.latency)) / 1e6
}

// samples is the number of latency samples over all kinds.
func (r *result) samples() int {
	n := 0
	for _, xs := range r.latency {
		n += len(xs)
	}
	return n
}

func (r *result) failed() int {
	n := 0
	for _, c := range r.failures {
		n += c
	}
	return n
}

// fail records a failed operation under the name of its fault.
func (r *result) fail(err error) { r.failures[faultName(err)]++ }

// check records a violated correctness check (at most a few messages
// per check are kept).
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok && len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
	return ok
}

// faultName names a failure by its typed error.
func faultName(err error) string {
	var de *bruckv.DeadlockError
	var rfe *bruckv.RankFailedError
	var he *httpStatusError
	switch {
	case errors.As(err, &de):
		return "deadlock"
	case errors.As(err, &rfe):
		return "rank-failed"
	case errors.As(err, &he):
		return fmt.Sprintf("http-%d", he.code)
	case errors.Is(err, errDigest):
		return "digest-mismatch"
	case errors.Is(err, errWrongOutput):
		return "wrong-output"
	}
	return "error"
}

var (
	errDigest      = errors.New("served digest differs from the oracle")
	errWrongOutput = errors.New("output differs from the oracle")
)

var workloads = map[string]func(*env) (*result, error){
	"a2av-small-real":    runSmallReal,
	"a2av-large-phantom": runLargePhantom,
	"apps-fixpoint":      runApps,
	"bruckd-mix":         runBruckd,
}

// workloadOrder fixes the order in which a traced run fills in the
// per-layer metrics its own workload does not produce.
var workloadOrder = []string{"a2av-small-real", "a2av-large-phantom", "apps-fixpoint", "bruckd-mix"}

// miniSeconds is how long a traced run measures each other workload to
// fill in the per-layer metrics of layers its own workload leaves idle.
const miniSeconds = 2

func main() {
	name := flag.String("workload", "", "workload: a2av-small-real, a2av-large-phantom, apps-fixpoint, bruckd-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	var line []byte
	var err error
	if *traced == 1 {
		line, err = tracedRun(*name, run, *seed, *seconds)
	} else {
		line, err = plainRun(run, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(run func(*env) (*result, error), seed uint64, seconds float64) ([]byte, error) {
	res, err := run(&env{seed: seed, seconds: seconds, tr: newTracer(false)})
	if err != nil {
		return nil, err
	}
	report(res)
	if rss, err := peakRSSMB(); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak resident set %.1f MB\n", rss)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d latency samples in %d kinds; per-kind p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
		res.samples(), len(res.latency), res.latencyMs(50), res.latencyMs(90), res.latencyMs(99))
	values := map[string]float64{
		"setup_s":    res.setupS,
		"ops_per_s":  res.opsPerS,
		"op_p50_ms":  res.latencyMs(50),
		"virtual_ms": res.virtualMs,
		"heap_mb":    res.heapMB,
	}
	return resultLine(res, []*result{res}, endToEnd, values)
}

// tracedRun measures the workload untraced, then traced, and reports
// the per-layer metrics. Metrics of layers this workload leaves idle
// come from short traced runs of the workloads that use them.
func tracedRun(name string, run func(*env) (*result, error), seed uint64, seconds float64) ([]byte, error) {
	plain, err := run(&env{seed: seed, seconds: seconds, tr: newTracer(false)})
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	res, err := run(&env{seed: seed, seconds: seconds, tr: tr})
	if err != nil {
		return nil, err
	}
	report(res)
	values := map[string]float64{}
	self, ops := tr.selfByDepth()
	for d, key := range []string{"span.op_self_us", "span.entry_self_us", "span.layer_self_us"} {
		values[key] = self[d] / float64(max(ops, 1)) / 1e3
	}
	values["trace.overhead_pct"] = (plain.opsPerS/res.opsPerS - 1) * 100
	values["tail.op_p90_ms"] = plain.latencyMs(90)
	for k, v := range res.layer {
		values[k] = v
	}
	all := []*result{plain, res}
	for _, other := range workloadOrder {
		if other == name || !missing(values) {
			continue
		}
		mini, err := workloads[other](&env{seed: seed, seconds: miniSeconds, tr: newTracer(true)})
		if err != nil {
			return nil, fmt.Errorf("%s (for per-layer metrics): %w", other, err)
		}
		all = append(all, mini)
		for _, w := range mini.wrong {
			fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED in %s: %s\n", other, w)
		}
		for k, v := range mini.layer {
			if _, ok := values[k]; !ok {
				values[k] = v
			}
		}
	}
	path := filepath.Join(".perfbench", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return resultLine(res, all, perLayer, values)
}

// missing reports whether some per-layer metric has no value yet.
func missing(values map[string]float64) bool {
	for _, m := range perLayer {
		if _, ok := values[m.name]; !ok {
			return true
		}
	}
	return false
}

// resultLine renders the final JSON line: the operation counts of res,
// correctness over every run made, and the listed metrics.
func resultLine(res *result, all []*result, list []metric, values map[string]float64) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.attempted, Failed: res.failed(), Metrics: map[string]value{}}
	for _, r := range all {
		out.Correct = out.Correct && len(r.wrong) == 0
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	return json.Marshal(out)
}

// report prints a run's operation accounting and failed checks to
// standard error.
func report(res *result) {
	fmt.Fprintf(os.Stderr, "perfbench: %d operations attempted, %d failed\n", res.attempted, res.failed())
	names := make([]string, 0, len(res.failures))
	for k := range res.failures {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   failed %-16s %d\n", k, res.failures[k])
	}
	for _, w := range res.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", w)
	}
}

// percentile is the p-th percentile of xs by linear interpolation
// between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads this process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// heapMeter samples the Go heap in use every heapSampleEvery while a
// workload measures, so the memory metric is an average over the run
// rather than one garbage-collection-timed peak.
type heapMeter struct {
	stop, done chan struct{}
	sum        float64
	n          int
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapMeter() *heapMeter {
	m := &heapMeter{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		m.sum += float64(sample[0].Value.Uint64())
		m.n++
	}
	read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// finish stops sampling and returns the mean heap in MB.
func (m *heapMeter) finish() float64 {
	close(m.stop)
	<-m.done
	return m.sum / float64(m.n) / (1 << 20)
}

// since is the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
