// Command bruckload drives a running bruckd with an open-loop,
// seeded-Poisson job stream and reports throughput and latency. Every
// arrival's due time is fixed up front, a bounded pool of workers sends
// each job when it is due, and each job's latency is timed from its due
// time, so a stalled server shows up as latency on the jobs queued
// behind it rather than as a lower offered rate. The
// mix mimics the paper's workloads across tenants: power-law skewed
// layouts shaped like the TC and kCFA applications, uniform Alltoallv,
// the Allgatherv/ReduceScatter/Allreduce families, and a phantom
// (size-only) tenant. Every raw job's digest is verified against a
// direct library run of the identical workload, so a single wrong
// payload byte fails the run.
//
// Usage:
//
//	bruckload [-addr localhost:8461] [-duration 3s] [-rate 40]
//	          [-seed 1] [-out BENCH_service.json] [-txt results/service.txt]
//
// Exit status: 0 on success, 2 if no job was served or any served
// digest was wrong.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bruckv"
	"bruckv/internal/service"
	"bruckv/internal/stats"
)

// template is one entry of the workload mix. Verification is skipped
// for phantom tenants (no payload bytes exist to check).
type template struct {
	name   string
	req    service.JobRequest // Seed filled per arrival from the pool
	verify bool
}

// seedPoolSize is the number of distinct workload seeds per template;
// oracle digests are precomputed once per (template, seed).
const seedPoolSize = 4

func mix() []template {
	return []template{
		{name: "tc-a2av", verify: true,
			req: service.JobRequest{Tenant: "tc", Op: "alltoallv", Ranks: 8, MaxBlock: 2048, Dist: "powerlaw", Base: 0.97}},
		{name: "kcfa-a2av", verify: true,
			req: service.JobRequest{Tenant: "kcfa", Op: "alltoallv", Ranks: 12, MaxBlock: 4096, Dist: "powerlaw", Base: 0.90}},
		{name: "uniform-a2av", verify: true,
			req: service.JobRequest{Tenant: "uniform", Op: "alltoallv", Ranks: 8, MaxBlock: 1024, Dist: "uniform"}},
		{name: "tc-allgatherv", verify: true,
			req: service.JobRequest{Tenant: "tc", Op: "allgatherv", Ranks: 8, MaxBlock: 1024, Dist: "powerlaw", Base: 0.97}},
		{name: "kcfa-reducescatter", verify: true,
			req: service.JobRequest{Tenant: "kcfa", Op: "reduce_scatter", Ranks: 8, MaxBlock: 512, Reduce: "xor", Dist: "powerlaw", Base: 0.90}},
		{name: "uniform-allreduce", verify: true,
			req: service.JobRequest{Tenant: "uniform", Op: "allreduce", Ranks: 4, MaxBlock: 4096, Reduce: "sum"}},
		{name: "phantom-a2av", verify: false,
			req: service.JobRequest{Tenant: "phantom", Op: "alltoallv", Ranks: 24, MaxBlock: 1 << 16, Dist: "uniform"}},
	}
}

// oracleDigests precomputes, per template and seed, the digest a
// correct server must report, by running the identical workload
// directly in-process on throwaway worlds (one per rank count).
func oracleDigests(templates []template, baseSeed uint64) (map[string][]string, error) {
	worlds := map[int]*bruckv.World{}
	defer func() {
		for _, w := range worlds {
			w.Close()
		}
	}()
	out := make(map[string][]string, len(templates))
	for _, tp := range templates {
		if !tp.verify {
			continue
		}
		w := worlds[tp.req.Ranks]
		if w == nil {
			var err error
			if w, err = bruckv.NewWorld(tp.req.Ranks, bruckv.WithMachine(bruckv.ZeroCost())); err != nil {
				return nil, fmt.Errorf("oracle world (%d ranks): %w", tp.req.Ranks, err)
			}
			worlds[tp.req.Ranks] = w
		}
		digests := make([]string, seedPoolSize)
		for i := range digests {
			req := tp.req
			req.Seed = baseSeed + uint64(i)
			d, err := service.Digest(w, req)
			if err != nil {
				return nil, fmt.Errorf("oracle digest %s seed %d: %w", tp.name, req.Seed, err)
			}
			digests[i] = d
		}
		out[tp.name] = digests
	}
	return out, nil
}

// outcome is one job's fate as seen by the load generator.
type outcome struct {
	template  string
	tenant    string
	served    bool
	wrong     bool
	rejected  bool
	errored   bool
	latencyNs int64
	virtualNs float64
}

func submit(client *http.Client, url string, req service.JobRequest) (*service.JobResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	res, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(res.Body).Decode(&eb)
		return nil, res.StatusCode, fmt.Errorf("%s: %s", res.Status, eb.Error)
	}
	var resp service.JobResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		return nil, res.StatusCode, err
	}
	return &resp, res.StatusCode, nil
}

// loadWorkers bounds the jobs in flight (and the connections open) at
// once. A job due while every worker is busy is sent when one frees up,
// and that wait counts toward its latency.
const loadWorkers = 64

// arrival is one scheduled job of the open loop.
type arrival struct {
	due     time.Duration // offset from the start of the run
	tp      template
	req     service.JobRequest
	seedIdx int
}

// schedule draws the seeded Poisson arrival stream: exponential gaps at
// rate jobs/s for the whole duration, each arrival a random template
// and workload seed.
func schedule(templates []template, seed uint64, rate float64, duration time.Duration) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []arrival
	for due := time.Duration(0); due < duration; {
		tp := templates[rng.Intn(len(templates))]
		seedIdx := rng.Intn(seedPoolSize)
		req := tp.req
		req.Seed = seed + uint64(seedIdx)
		out = append(out, arrival{due: due, tp: tp, req: req, seedIdx: seedIdx})
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return out
}

// openLoop runs every arrival on a pool of workers, each job once
// sleepUntil has returned for start plus its due offset, and returns
// the outcomes in arrival order. do receives the absolute due time to
// time the job from. A late wake-up delays only the job it belongs to:
// the next job's due time comes from the schedule, not from the
// previous wake-up.
func openLoop(arrivals []arrival, workers int, start time.Time, sleepUntil func(time.Time),
	do func(a arrival, due time.Time) outcome) []outcome {
	out := make([]outcome, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(arrivals); i = int(next.Add(1) - 1) {
				due := start.Add(arrivals[i].due)
				sleepUntil(due)
				out[i] = do(arrivals[i], due)
			}
		}()
	}
	wg.Wait()
	return out
}

// latencySummary reports percentiles over a set of latencies.
type latencySummary struct {
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

func summarize(ns []int64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return latencySummary{
		P50Ns: int64(stats.Percentile(xs, 50)),
		P95Ns: int64(stats.Percentile(xs, 95)),
		P99Ns: int64(stats.Percentile(xs, 99)),
	}
}

// report is the BENCH_service.json schema.
type report struct {
	Addr          string                   `json:"addr"`
	DurationS     float64                  `json:"duration_s"`
	OfferedRateHz float64                  `json:"offered_rate_hz"`
	Seed          uint64                   `json:"seed"`
	Submitted     int                      `json:"jobs_submitted"`
	Served        int                      `json:"jobs_served"`
	Rejected      int                      `json:"jobs_rejected"`
	Errored       int                      `json:"jobs_errored"`
	WrongDigests  int                      `json:"wrong_digests"`
	ThroughputHz  float64                  `json:"throughput_hz"`
	Latency       latencySummary           `json:"latency"`
	PerTenant     map[string]*tenantReport `json:"per_tenant"`
}

type tenantReport struct {
	Served  int            `json:"served"`
	Latency latencySummary `json:"latency"`
}

func run() error {
	addr := flag.String("addr", "localhost:8461", "bruckd address")
	duration := flag.Duration("duration", 3*time.Second, "load duration")
	rate := flag.Float64("rate", 40, "offered arrival rate in jobs/second (Poisson)")
	seed := flag.Uint64("seed", 1, "workload and arrival seed")
	out := flag.String("out", "BENCH_service.json", "JSON report path")
	txt := flag.String("txt", filepath.Join("results", "service.txt"), "text report path")
	flag.Parse()

	templates := mix()
	fmt.Printf("bruckload: precomputing oracle digests for %d templates x %d seeds\n",
		len(templates), seedPoolSize)
	oracles, err := oracleDigests(templates, *seed)
	if err != nil {
		return err
	}

	url := "http://" + *addr + "/v1/jobs"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: loadWorkers,
		MaxConnsPerHost:     loadWorkers,
	}}
	arrivals := schedule(templates, *seed, *rate, *duration)
	submitted := len(arrivals)
	start := time.Now()
	sleepUntil := func(due time.Time) { time.Sleep(time.Until(due)) }
	outcomes := openLoop(arrivals, loadWorkers, start, sleepUntil, func(a arrival, due time.Time) outcome {
		resp, status, err := submit(client, url, a.req)
		oc := outcome{template: a.tp.name, tenant: a.req.Tenant, latencyNs: time.Since(due).Nanoseconds()}
		switch {
		case err == nil:
			oc.served = true
			oc.virtualNs = resp.VirtualNs
			if a.tp.verify && resp.Digest != oracles[a.tp.name][a.seedIdx] {
				oc.wrong = true
			}
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			oc.rejected = true
		default:
			oc.errored = true
		}
		return oc
	})
	elapsed := time.Since(start)

	rep := report{
		Addr:          *addr,
		DurationS:     elapsed.Seconds(),
		OfferedRateHz: *rate,
		Seed:          *seed,
		Submitted:     submitted,
		PerTenant:     map[string]*tenantReport{},
	}
	var all []int64
	perTenant := map[string][]int64{}
	for _, oc := range outcomes {
		switch {
		case oc.wrong:
			rep.WrongDigests++
			rep.Served++
		case oc.served:
			rep.Served++
			all = append(all, oc.latencyNs)
			perTenant[oc.tenant] = append(perTenant[oc.tenant], oc.latencyNs)
		case oc.rejected:
			rep.Rejected++
		default:
			rep.Errored++
		}
	}
	rep.ThroughputHz = float64(rep.Served) / elapsed.Seconds()
	rep.Latency = summarize(all)
	tenants := make([]string, 0, len(perTenant))
	for t := range perTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		rep.PerTenant[t] = &tenantReport{Served: len(perTenant[t]), Latency: summarize(perTenant[t])}
	}

	if err := writeReports(rep, tenants, *out, *txt); err != nil {
		return err
	}
	fmt.Printf("bruckload: %d submitted, %d served (%.1f jobs/s), %d rejected, %d errored, %d wrong digests\n",
		rep.Submitted, rep.Served, rep.ThroughputHz, rep.Rejected, rep.Errored, rep.WrongDigests)
	fmt.Printf("bruckload: latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		float64(rep.Latency.P50Ns)/1e6, float64(rep.Latency.P95Ns)/1e6, float64(rep.Latency.P99Ns)/1e6)
	if rep.WrongDigests > 0 {
		fmt.Fprintf(os.Stderr, "bruckload: FAILED: %d served jobs returned wrong bytes\n", rep.WrongDigests)
		os.Exit(2)
	}
	if rep.Served == 0 {
		fmt.Fprintln(os.Stderr, "bruckload: FAILED: no jobs served")
		os.Exit(2)
	}
	return nil
}

func writeReports(rep report, tenants []string, out, txt string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "bruckd service load report\n")
	fmt.Fprintf(&b, "==========================\n")
	fmt.Fprintf(&b, "offered %.0f jobs/s (Poisson, open loop) for %.2fs against %s\n",
		rep.OfferedRateHz, rep.DurationS, rep.Addr)
	fmt.Fprintf(&b, "submitted %d  served %d  rejected %d  errored %d  wrong-digests %d\n",
		rep.Submitted, rep.Served, rep.Rejected, rep.Errored, rep.WrongDigests)
	fmt.Fprintf(&b, "throughput %.1f jobs/s\n", rep.ThroughputHz)
	fmt.Fprintf(&b, "latency    p50 %8.2fms  p95 %8.2fms  p99 %8.2fms\n",
		float64(rep.Latency.P50Ns)/1e6, float64(rep.Latency.P95Ns)/1e6, float64(rep.Latency.P99Ns)/1e6)
	fmt.Fprintf(&b, "\nper tenant:\n")
	for _, t := range tenants {
		tr := rep.PerTenant[t]
		fmt.Fprintf(&b, "  %-10s served %5d  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms\n",
			t, tr.Served, float64(tr.Latency.P50Ns)/1e6, float64(tr.Latency.P95Ns)/1e6, float64(tr.Latency.P99Ns)/1e6)
	}
	if err := os.MkdirAll(filepath.Dir(txt), 0o755); err != nil {
		return err
	}
	return os.WriteFile(txt, b.Bytes(), 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bruckload:", err)
		os.Exit(1)
	}
}
