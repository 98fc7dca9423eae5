package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bruckv"
)

func testConfig(size int) Config {
	return Config{
		Worlds: map[string]bruckv.WorldConfig{
			"default": {Size: size, Preset: "zero"},
		},
		Tenants: map[string]TenantConfig{
			"alpha": {},
			"beta":  {},
		},
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// oracle computes the digest the server must report for req, on a
// throwaway world of exactly req.Ranks ranks.
func oracle(t *testing.T, req JobRequest) string {
	t.Helper()
	w, err := bruckv.NewWorld(req.Ranks, bruckv.WithMachine(bruckv.ZeroCost()))
	if err != nil {
		t.Fatalf("oracle world: %v", err)
	}
	defer w.Close()
	d, err := Digest(w, req)
	if err != nil {
		t.Fatalf("oracle digest: %v", err)
	}
	return d
}

// TestConcurrentTenantsByteExact batches jobs from two tenants onto the
// shared default world concurrently and checks every served digest
// byte-exactly against a direct library run of the same workload.
func TestConcurrentTenantsByteExact(t *testing.T) {
	s := newTestServer(t, testConfig(12))
	reqs := []JobRequest{
		{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 512, Dist: "powerlaw", Base: 0.9, Seed: 1},
		{Tenant: "alpha", Op: "alltoallv", Ranks: 3, MaxBlock: 256, Dist: "uniform", Seed: 2, Repeat: 3},
		{Tenant: "beta", Op: "allgatherv", Ranks: 4, MaxBlock: 300, Dist: "normal", Seed: 3},
		{Tenant: "beta", Op: "reduce_scatter", Ranks: 5, MaxBlock: 200, Reduce: "xor", Seed: 4},
		{Tenant: "beta", Op: "allreduce", Ranks: 2, MaxBlock: 1024, Reduce: "max", Seed: 5},
		{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 128, Dist: "fixed", Algorithm: "two-phase", Seed: 6},
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = oracle(t, r)
	}
	var wg sync.WaitGroup
	got := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	for round := 0; round < 3; round++ {
		for i, r := range reqs {
			wg.Add(1)
			go func(i int, r JobRequest) {
				defer wg.Done()
				resp, err := s.Submit(context.Background(), r)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = resp.Digest
				if resp.Bytes < 0 || resp.Messages < 0 || resp.VirtualNs < 0 {
					errs[i] = fmt.Errorf("negative accounting: %+v", resp)
				}
				if len(resp.Ranks) != r.Ranks {
					errs[i] = fmt.Errorf("lease has %d ranks, want %d", len(resp.Ranks), r.Ranks)
				}
			}(i, r)
		}
		wg.Wait()
		for i := range reqs {
			if errs[i] != nil {
				t.Fatalf("round %d job %d: %v", round, i, errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("round %d job %d digest %s, want %s (served bytes differ from a direct run)",
					round, i, got[i], want[i])
			}
		}
	}
}

// TestQuotaTypedErrors checks that each quota dimension rejects with an
// error wrapping ErrQuotaExceeded, and the other admission failures
// wrap ErrAdmissionRejected / ErrInvalidJob.
func TestQuotaTypedErrors(t *testing.T) {
	cfg := testConfig(8)
	cfg.Tenants["alpha"] = TenantConfig{Quota: Quota{MaxRanks: 4, MaxBytes: 1 << 20, MaxInFlight: 1}}
	s := newTestServer(t, cfg)
	ctx := context.Background()

	if _, err := s.Submit(ctx, JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 6, MaxBlock: 16}); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("over-ranks error %v does not wrap ErrQuotaExceeded", err)
	}
	if _, err := s.Submit(ctx, JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 1 << 20}); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("over-bytes error %v does not wrap ErrQuotaExceeded", err)
	}

	// Occupy alpha's single in-flight slot with a long job, then submit
	// again: the second must bounce off MaxInFlight.
	long := JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 16, Repeat: 2000}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, long)
		done <- err
	}()
	h := s.hosts["default"]
	deadline := time.Now().Add(10 * time.Second)
	for h.leasedRanks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long job never leased ranks")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(ctx, JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 2, MaxBlock: 16}); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("MaxInFlight=1 submit error %v does not wrap ErrQuotaExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("long job failed: %v", err)
	}

	if _, err := s.Submit(ctx, JobRequest{Tenant: "nobody", Op: "alltoallv", Ranks: 2, MaxBlock: 16}); !errors.Is(err, ErrAdmissionRejected) {
		t.Errorf("unknown-tenant error %v does not wrap ErrAdmissionRejected", err)
	}
	if _, err := s.Submit(ctx, JobRequest{Tenant: "beta", Op: "gossip", Ranks: 2, MaxBlock: 16}); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("unknown-op error %v does not wrap ErrInvalidJob", err)
	}
	if _, err := s.Submit(ctx, JobRequest{Tenant: "beta", Op: "alltoallv", Ranks: 16, MaxBlock: 16}); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("oversize-lease error %v does not wrap ErrInvalidJob", err)
	}
}

// TestSubmitCancelReleasesLease cancels a submitter's context mid-job
// and checks the contract: the submitter returns promptly with the
// context error, the job's sub-communicator lease is released when the
// job finishes in the background, and the freed capacity serves
// subsequent jobs byte-exactly.
func TestSubmitCancelReleasesLease(t *testing.T) {
	s := newTestServer(t, testConfig(4))
	h := s.hosts["default"]

	ctx, cancel := context.WithCancel(context.Background())
	long := JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 64, Repeat: 5000}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, long)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for h.leasedRanks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never leased ranks")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}

	// The abandoned job finishes in the background and must hand its
	// lease back.
	for h.leasedRanks() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease never released after cancel: %d ranks still leased", h.leasedRanks())
		}
		time.Sleep(time.Millisecond)
	}

	// The freed capacity serves a fresh full-width job, byte-exact.
	req := JobRequest{Tenant: "beta", Op: "alltoallv", Ranks: 4, MaxBlock: 512, Seed: 9}
	resp, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}
	if want := oracle(t, req); resp.Digest != want {
		t.Fatalf("post-cancel digest %s, want %s", resp.Digest, want)
	}
}

// TestCloseAbortsLeasedJobs hard-stops the server mid-job: the session
// context cancels, the leased job fails with the abort, and its ranks
// return to the free list rather than staying wedged.
func TestCloseAbortsLeasedJobs(t *testing.T) {
	s := newTestServer(t, testConfig(4))
	h := s.hosts["default"]

	long := JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 64, Repeat: 100000}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), long)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for h.leasedRanks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never leased ranks")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if err := <-done; err == nil {
		t.Fatal("job served despite hard close")
	}
	if got := h.leasedRanks(); got != 0 {
		t.Fatalf("%d ranks still leased after close", got)
	}
	if !s.Drained() {
		t.Fatal("server not drained after Close")
	}
}

// TestDrainFinishesInFlight submits a burst, drains concurrently, and
// checks that every admitted job completes while post-drain submissions
// are rejected as draining.
func TestDrainFinishesInFlight(t *testing.T) {
	s := newTestServer(t, testConfig(8))
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(),
				JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 2 + i%3, MaxBlock: 128, Seed: uint64(i), Repeat: 50})
		}(i)
	}
	wg.Wait() // all admitted and served before the drain begins
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pre-drain job %d: %v", i, err)
		}
	}
	s.Drain()
	if !s.Drained() {
		t.Fatal("Drain returned but Drained() is false")
	}
	if _, err := s.Submit(context.Background(), JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 2, MaxBlock: 16}); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("post-drain submit error %v does not wrap ErrAdmissionRejected", err)
	}
}

// TestDrainWaitsForLeasedJob starts a drain while a job is mid-flight:
// the drain must wait for it, and the job must be served correctly.
func TestDrainWaitsForLeasedJob(t *testing.T) {
	s := newTestServer(t, testConfig(4))
	h := s.hosts["default"]
	req := JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 4, MaxBlock: 64, Seed: 3, Repeat: 500}
	done := make(chan error, 1)
	var resp *JobResponse
	go func() {
		var err error
		resp, err = s.Submit(context.Background(), req)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for h.leasedRanks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never leased ranks")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	if err := <-done; err != nil {
		t.Fatalf("in-flight job failed during drain: %v", err)
	}
	if want := oracle(t, req); resp.Digest != want {
		t.Fatalf("drained job digest %s, want %s", resp.Digest, want)
	}
}

// TestTenantWorldProfiles routes tenants to dedicated pool worlds — the
// mechanism behind per-tenant tuning and fault overrides — and checks
// phantom profiles serve (digest-free) jobs.
func TestTenantWorldProfiles(t *testing.T) {
	cfg := Config{
		Worlds: map[string]bruckv.WorldConfig{
			"default": {Size: 6, Preset: "zero"},
			"ghost":   {Size: 6, Preset: "zero", Phantom: true},
			"faulty":  {Size: 6, Preset: "zero", Faults: &bruckv.FaultPlan{Seed: 1, Stragglers: 2, Slowdown: 4}},
		},
		Tenants: map[string]TenantConfig{
			"alpha": {},
			"ghost": {World: "ghost"},
			"slow":  {World: "faulty"},
		},
	}
	s := newTestServer(t, cfg)
	ctx := context.Background()

	resp, err := s.Submit(ctx, JobRequest{Tenant: "ghost", Op: "alltoallv", Ranks: 4, MaxBlock: 256, Seed: 1})
	if err != nil {
		t.Fatalf("phantom job: %v", err)
	}
	if resp.Digest != "" {
		t.Errorf("phantom job reported digest %q, want none", resp.Digest)
	}
	if resp.World != "ghost" {
		t.Errorf("phantom job served by %q, want ghost", resp.World)
	}
	if resp.Bytes == 0 {
		t.Errorf("phantom job reports zero bytes; phantom worlds still account sizes")
	}

	req := JobRequest{Tenant: "slow", Op: "alltoallv", Ranks: 6, MaxBlock: 128, Seed: 2}
	slow, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatalf("faulty-profile job: %v", err)
	}
	if want := oracle(t, req); slow.Digest != want {
		t.Errorf("faulty-profile digest %s, want %s (fault plans must not corrupt payloads)", slow.Digest, want)
	}
}

// TestMetricsEndpoint scrapes /metrics after serving traffic and spot
// checks the Prometheus exposition.
// TestJobBodyCap posts a job body over the cap, which must answer 413
// without decoding it, and then a valid job to the same server.
func TestJobBodyCap(t *testing.T) {
	s := newTestServer(t, testConfig(4))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body string) (int, string) {
		t.Helper()
		res, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer res.Body.Close()
		var eb errorBody
		_ = json.NewDecoder(res.Body).Decode(&eb)
		return res.StatusCode, eb.Kind
	}
	huge := `{"tenant":"` + strings.Repeat("a", maxJobBody) + `"}`
	if code, kind := post(huge); code != http.StatusRequestEntityTooLarge || kind != "invalid" {
		t.Errorf("oversized body: status %d kind %q, want 413 invalid", code, kind)
	}
	if code, _ := post(`{"tenant":"alpha","op":"alltoallv","ranks":2,"max_block":16}`); code != http.StatusOK {
		t.Errorf("valid job after an oversized one: status %d, want 200", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig(6))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(ctx, JobRequest{Tenant: "alpha", Op: "alltoallv", Ranks: 3, MaxBlock: 128, Seed: uint64(i)}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if _, err := s.Submit(ctx, JobRequest{Tenant: "nobody", Op: "alltoallv", Ranks: 2, MaxBlock: 16}); err == nil {
		t.Fatal("unknown tenant admitted")
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer res.Body.Close()
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	body := sb.String()
	for _, want := range []string{
		`bruckd_jobs_served_total{tenant="alpha"} 3`,
		`bruckd_jobs_rejected_total{tenant="nobody",reason="unknown_tenant"} 1`,
		`bruckd_world_ranks{world="default"} 6`,
		"# TYPE bruckd_jobs_served_total counter",
		"# TYPE bruckd_queue_depth gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "bruckd_virtual_ns_total") ||
		!strings.Contains(body, "bruckd_bytes_total") ||
		!strings.Contains(body, "bruckd_messages_total") {
		t.Errorf("metrics missing per-tenant counters:\n%s", body)
	}
}
