package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bruckv"
	"bruckv/internal/service"
)

// Service load: phase A is open loop at phaseARate jobs/s, each run of
// len(tenantMix()) arrivals a seeded permutation of the mix, well below
// the closed-loop capacity phase B measures; phase B is closed loop
// with one connection per load worker. There are runtime.NumCPU() load
// workers and no other load-generating goroutines.
const (
	phaseARate   = 80.0
	phaseAShare  = 0.5
	phaseBSlices = 10
	seedsPerTmpl = 4
)

// template is one entry of the tenant mix.
type template struct {
	name string
	req  service.JobRequest // Seed set per job from the seed pool
}

func tenantMix() []template {
	return []template{
		{"tc-a2av", service.JobRequest{Tenant: "tc", Op: "alltoallv", Ranks: 8, MaxBlock: 2048, Dist: "powerlaw", Base: 0.97}},
		{"kcfa-a2av", service.JobRequest{Tenant: "kcfa", Op: "alltoallv", Ranks: 12, MaxBlock: 4096, Dist: "powerlaw", Base: 0.90}},
		{"uniform-a2av", service.JobRequest{Tenant: "uniform", Op: "alltoallv", Ranks: 8, MaxBlock: 1024, Dist: "uniform"}},
		{"tc-allgatherv", service.JobRequest{Tenant: "tc", Op: "allgatherv", Ranks: 8, MaxBlock: 1024, Dist: "powerlaw", Base: 0.97}},
		{"kcfa-reducescatter", service.JobRequest{Tenant: "kcfa", Op: "reduce_scatter", Ranks: 8, MaxBlock: 512, Reduce: "xor", Dist: "powerlaw", Base: 0.90}},
		{"uniform-allreduce", service.JobRequest{Tenant: "uniform", Op: "allreduce", Ranks: 4, MaxBlock: 4096, Reduce: "sum"}},
		{"lossy-a2av", service.JobRequest{Tenant: "lossy", Op: "alltoallv", Ranks: 8, MaxBlock: 1024, Dist: "uniform"}},
		{"phantom-a2av", service.JobRequest{Tenant: "phantom", Op: "alltoallv", Ranks: 24, MaxBlock: 1 << 16, Dist: "uniform"}},
	}
}

// serviceConfig is the pool: a default world for the skewed and
// uniform tenants, a world with a small loss plan so the reliable
// transport runs, and a phantom world.
func serviceConfig(seed uint64) service.Config {
	return service.Config{
		Worlds: map[string]bruckv.WorldConfig{
			"default": {Size: 32, Preset: "theta"},
			"lossy":   {Size: 16, Preset: "theta", Faults: &bruckv.FaultPlan{Seed: seed, Loss: 0.02}},
			"phantom": {Size: 64, Preset: "theta", Phantom: true},
		},
		Tenants: map[string]service.TenantConfig{
			"tc":      {Quota: service.Quota{MaxRanks: 16}},
			"kcfa":    {Quota: service.Quota{MaxRanks: 16}},
			"uniform": {},
			"lossy":   {World: "lossy"},
			"phantom": {World: "phantom"},
		},
	}
}

// job is one generated request and the digest a correct server
// returns for it ("" for phantom jobs, which carry no bytes).
type job struct {
	tmpl   string
	req    service.JobRequest
	digest string
}

type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// jobSample is one served job as the load generator saw it.
type jobSample struct {
	tmpl                    string
	latencyNs, httpNs, late float64
	queueNs, runNs          float64
}

// bruckdRun is one bruckd-mix run's state.
type bruckdRun struct {
	e      *env
	res    *result
	url    string
	client *http.Client
	pool   map[string][]job // seedsPerTmpl jobs per template

	mu      sync.Mutex
	samples []jobSample
}

// runBruckd serves the tenant mix from an in-process server behind its
// HTTP handler on a loopback listener.
func runBruckd(e *env) (*result, error) {
	res := newResult()
	mix := tenantMix()
	x := &bruckdRun{e: e, res: res, pool: map[string][]job{}}
	var all []job
	for i, t := range mix {
		for k := 0; k < seedsPerTmpl; k++ {
			req := t.req
			req.Seed = e.seed*1000 + uint64(10*i+k)
			jb := job{tmpl: t.name, req: req}
			if req.Tenant != "phantom" {
				d, err := oracleDigest(req)
				if err != nil {
					return nil, err
				}
				jb.digest = d
			}
			x.pool[t.name] = append(x.pool[t.name], jb)
			all = append(all, jb)
		}
	}
	workers := runtime.NumCPU()

	t0 := time.Now()
	srv, err := service.New(serviceConfig(e.seed))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	defer func() {
		if err := hs.Shutdown(context.Background()); err != nil {
			res.check(false, "http shutdown: %v", err)
		}
		<-serveDone
		srv.Drain()
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	defer transport.CloseIdleConnections()
	x.client = &http.Client{Transport: transport}
	x.url = "http://" + ln.Addr().String() + "/v1/jobs"
	for _, t := range mix { // warm-up: the first job of every template
		x.do(x.pool[t.name][0], time.Now(), false)
	}
	res.setupS = since(t0)

	// Direct submission of the whole pool, one job at a time: the
	// service without HTTP, and a job sequence whose virtual times are
	// deterministic.
	var direct []float64
	for _, jb := range all {
		t := time.Now()
		resp, err := srv.Submit(context.Background(), jb.req)
		direct = append(direct, float64(time.Since(t).Nanoseconds()))
		res.attempted++
		if err == nil {
			err = x.verify(jb, resp)
		}
		if err != nil {
			res.fail(err)
			continue
		}
		res.virtualMs += resp.VirtualNs / 1e6
	}

	// Phase A: open loop, seeded Poisson arrivals, each job timed from
	// when it was due.
	rng := &splitmix{s: e.seed ^ 0xa11ce}
	n := int(math.Round(phaseARate * e.seconds * phaseAShare))
	due := make([]time.Duration, n)
	jobs := make([]job, n)
	var at float64
	var perm []int
	for i := range due {
		u := float64(rng.next()>>11) / (1 << 53)
		at += -math.Log(1-u) / phaseARate
		due[i] = time.Duration(at * 1e9)
		if i%len(mix) == 0 {
			perm = rng.perm(len(mix))
		}
		t := mix[perm[i%len(mix)]]
		jobs[i] = x.pool[t.name][rng.next()%seedsPerTmpl]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	heap := startHeapMeter()
	startA := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				when := startA.Add(due[i])
				waitUntil(when)
				x.do(jobs[i], when, true)
			}
		}()
	}
	wg.Wait()
	phaseA := x.takeSamples()

	// Phase B: closed loop, each worker cycling through one job of
	// every template, in whole cycles. Throughput is counted in
	// phaseBSlices equal slices of the phase and reported as their
	// median, so a burst of host noise moves one slice, not the result.
	completed := make([][]time.Duration, workers)
	durB := time.Duration(e.seconds * (1 - phaseAShare) * 1e9)
	startB := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for cycle := 0; cycle == 0 || since(startB) < durB.Seconds(); cycle++ {
				for _, t := range mix {
					if x.do(x.pool[t.name][(w+cycle)%seedsPerTmpl], time.Now(), x.e.tr.on) {
						completed[w] = append(completed[w], time.Since(startB))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	slice := durB / phaseBSlices
	counts := make([]float64, phaseBSlices)
	for _, ts := range completed {
		for _, t := range ts {
			if i := int(t / slice); i < phaseBSlices {
				counts[i]++
			}
		}
	}
	for i := range counts {
		counts[i] /= slice.Seconds()
	}
	res.opsPerS = percentile(counts, 50)
	res.heapMB = heap.finish()
	phaseB := x.takeSamples()

	for _, s := range phaseA {
		res.latency[s.tmpl] = append(res.latency[s.tmpl], s.latencyNs)
	}
	if e.tr.on {
		x.layerMetrics(phaseA, append(phaseA, phaseB...), direct)
	}
	return res, nil
}

// spinWindow is how long before a job is due its worker stops sleeping
// and yields in a loop instead: a sleeping goroutine wakes up to a
// millisecond late (about 0.5 ms at the median on the reference box),
// which would otherwise count as job latency.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at t, sleeping until shortly before it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// do submits one job over HTTP, checks it, and reports whether it was
// served correctly. due is when the job was scheduled to be sent;
// keep records the sample for the run's statistics.
func (x *bruckdRun) do(jb job, due time.Time, keep bool) bool {
	tr := x.e.tr
	op := tr.newOp()
	root := tr.begin("loadgen.job", 0, op)
	root.start = due
	sent := time.Now()
	hs := tr.begin("http.POST /v1/jobs", root.id, op)
	resp, err := x.post(jb.req)
	end := time.Now()
	tr.end(hs)
	if resp != nil && tr.on {
		run := time.Duration(resp.RunWallNs)
		queue := time.Duration(resp.QueueWallNs)
		tr.child("service.queue", hs.id, op, end.Add(-run-queue), end.Add(-run))
		tr.child("service.run", hs.id, op, end.Add(-run), end)
	}
	if err == nil {
		err = x.verify(jb, resp)
	}
	x.mu.Lock()
	x.res.attempted++
	if err != nil {
		x.res.fail(err)
	}
	if err == nil && keep {
		x.samples = append(x.samples, jobSample{
			tmpl:      jb.tmpl,
			latencyNs: float64(end.Sub(due).Nanoseconds()),
			httpNs:    float64(end.Sub(sent).Nanoseconds()),
			late:      float64(sent.Sub(due).Nanoseconds()),
			queueNs:   float64(resp.QueueWallNs),
			runNs:     float64(resp.RunWallNs),
		})
	}
	x.mu.Unlock()
	tr.end(root)
	return err == nil
}

// takeSamples returns and clears the recorded samples.
func (x *bruckdRun) takeSamples() []jobSample {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.samples
	x.samples = nil
	return s
}

// post sends one job request and decodes the response.
func (x *bruckdRun) post(req service.JobRequest) (*service.JobResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := x.client.Post(x.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(hr.Body).Decode(&eb) // the status alone names the failure
		return nil, &httpStatusError{hr.StatusCode, eb.Error}
	}
	var resp service.JobResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding job response: %w", err)
	}
	return &resp, nil
}

// verify checks a served job against the oracle digest.
func (x *bruckdRun) verify(jb job, resp *service.JobResponse) error {
	if resp.Digest != jb.digest {
		x.res.check(false, "%s seed %d: served digest %q, oracle %q", jb.tmpl, jb.req.Seed, resp.Digest, jb.digest)
		return fmt.Errorf("%s: %w", jb.tmpl, errDigest)
	}
	if resp.VirtualNs <= 0 {
		return fmt.Errorf("%s: served job reports virtual time %v: %w", jb.tmpl, resp.VirtualNs, errWrongOutput)
	}
	return nil
}

// layerMetrics derives the service's per-layer metrics: phase A for
// the open-loop quantities, both phases for the lossy tenant's runs.
func (x *bruckdRun) layerMetrics(phaseA, both []jobSample, direct []float64) {
	m := x.res.layer
	var over, queue, run, late, lossy []float64
	for _, s := range phaseA {
		over = append(over, s.httpNs-s.queueNs-s.runNs)
		queue = append(queue, s.queueNs)
		run = append(run, s.runNs)
		late = append(late, s.late)
	}
	for _, s := range both {
		if s.tmpl == "lossy-a2av" {
			lossy = append(lossy, s.runNs)
		}
	}
	m["service.http_overhead_ms"] = percentile(over, 50) / 1e6
	m["service.queue_wait_p50_ms"] = percentile(queue, 50) / 1e6
	m["service.queue_wait_p99_ms"] = percentile(queue, 99) / 1e6
	m["service.run_ms"] = percentile(run, 50) / 1e6
	m["service.submit_direct_ms"] = percentile(direct, 50) / 1e6
	m["service.lossy_run_ms"] = percentile(lossy, 50) / 1e6
	m["loadgen.late_ms"] = percentile(late, 99) / 1e6
	if len(lossy) == 0 {
		x.res.check(false, "no lossy-tenant job was served")
	}
}
