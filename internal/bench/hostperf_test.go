package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHostPerfReport(t *testing.T) {
	cfg := HostPerfConfig{P: 8, Iters: 4, Algorithms: []string{"two-phase", "spreadout"}}
	rep, err := HostPerf(Options{Iters: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.AllocsPerCall < 0 {
			t.Errorf("%s: negative allocs/call %.1f", row.Algorithm, row.AllocsPerCall)
		}
		if row.PoolOutstanding != 0 {
			t.Errorf("%s: %d payloads leaked", row.Algorithm, row.PoolOutstanding)
		}
		if row.PoolHitRate < 0 || row.PoolHitRate > 1 {
			t.Errorf("%s: pool hit rate %.3f outside [0,1]", row.Algorithm, row.PoolHitRate)
		}
		if row.Run.Pool.Gets == 0 {
			t.Errorf("%s: real-payload run recorded no pool activity", row.Algorithm)
		}
	}

	var text bytes.Buffer
	rep.Fprint(&text)
	for _, want := range []string{"hostperf", "two-phase", "spreadout", "pool hit"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("report text missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back HostPerfReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if len(back.Rows) != 2 || back.Rows[0].Algorithm != rep.Rows[0].Algorithm {
		t.Errorf("round-tripped report lost rows: %+v", back.Rows)
	}
}

// TestHostPerfAmortization checks the session-amortization block: a
// resident world reused across Runs must beat a fresh world per Run on
// per-Run allocations (the session spawn — goroutines, arenas,
// mailboxes — is paid once, not per Run).
func TestHostPerfAmortization(t *testing.T) {
	cfg := HostPerfConfig{P: 32, Iters: 2, Algorithms: []string{"spreadout"}, Runs: 32}
	rep, err := HostPerf(Options{Iters: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Amortization
	if a == nil {
		t.Fatal("no amortization block with Runs > 0")
	}
	if a.P != 32 || a.Runs != 32 || len(a.residentNs) != 32 || len(a.freshNs) != 32 {
		t.Errorf("amortization ran at P=%d Runs=%d with %d/%d samples, want 32/32/32/32",
			a.P, a.Runs, len(a.residentNs), len(a.freshNs))
	}
	if a.ResidentAllocsPerRun >= a.FreshAllocsPerRun {
		t.Errorf("resident runs allocate %.0f objects/run, fresh worlds %.0f — session setup not amortized",
			a.ResidentAllocsPerRun, a.FreshAllocsPerRun)
	}
	// The wall-clock verdict compares medians of the same alternated
	// samples, so one preempted Run on a shared host cannot tip it.
	if resident, fresh := a.medianNs(); resident >= fresh {
		t.Errorf("resident %.0f ns/run, fresh %.0f ns/run (medians of %d): reuse saved no host time",
			resident, fresh, a.Runs)
	}
	var text bytes.Buffer
	rep.Fprint(&text)
	if !strings.Contains(text.String(), "run-setup amortization") {
		t.Errorf("report text missing the amortization line:\n%s", text.String())
	}

	// Runs < 0 disables the block.
	rep2, err := HostPerf(Options{Iters: 1}, HostPerfConfig{P: 4, Iters: 2, Algorithms: []string{"spreadout"}, Runs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Amortization != nil {
		t.Error("amortization block present with Runs < 0")
	}
}

// TestHostPerfPhantom checks the phantom configuration: data payloads
// are phantom, so the only pool traffic is two-phase's real metadata
// messages — which must still balance to zero outstanding.
func TestHostPerfPhantom(t *testing.T) {
	cfg := HostPerfConfig{P: 8, Iters: 3, Algorithms: []string{"two-phase"}, Phantom: true}
	rep, err := HostPerf(Options{Iters: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row.PoolOutstanding != 0 {
		t.Errorf("phantom run leaked %d pooled buffers", row.PoolOutstanding)
	}
	if row.Run.Scratch.Gets == 0 {
		t.Errorf("phantom run recorded no scratch-arena activity (metadata stays real)")
	}
}
