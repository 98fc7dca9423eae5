package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"bruckv"
	"bruckv/internal/graph"
	"bruckv/internal/service"
)

func TestClosureCountChain(t *testing.T) {
	chain := []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}
	if got := closureCount(chain); got != 6 {
		t.Fatalf("closure of a 4-node chain has %d pairs, want 6", got)
	}
}

func TestClosureCountMatchesSequentialTC(t *testing.T) {
	edges := graph.DenseBlocks(60, 3, 7)
	if got, want := closureCount(edges), int64(len(graph.SequentialTC(edges))); got != want {
		t.Fatalf("closureCount = %d, SequentialTC has %d pairs", got, want)
	}
}

func TestTransposeP3(t *testing.T) {
	// Rank s sends block "s->d" of length d+1 to every d.
	send := make([][]byte, 3)
	sc := make([][]int, 3)
	sd := make([][]int, 3)
	for s := 0; s < 3; s++ {
		sc[s] = make([]int, 3)
		sd[s] = make([]int, 3)
		for d := 0; d < 3; d++ {
			sd[s][d] = len(send[s])
			sc[s][d] = d + 1
			send[s] = append(send[s], bytes.Repeat([]byte{byte(10*s + d)}, d+1)...)
		}
	}
	want := [][]byte{
		{0, 10, 20},
		{1, 1, 11, 11, 21, 21},
		{2, 2, 2, 12, 12, 12, 22, 22, 22},
	}
	got := transpose(send, sc, sd)
	for d := range want {
		if !bytes.Equal(got[d], want[d]) {
			t.Errorf("rank %d receives %v, want %v", d, got[d], want[d])
		}
	}
}

func TestDigestOracleMatchesService(t *testing.T) {
	reqs := []service.JobRequest{
		{Tenant: "t", Op: "alltoallv", Ranks: 4, MaxBlock: 64, Dist: "powerlaw", Base: 0.9, Seed: 3, Repeat: 2},
		{Tenant: "t", Op: "allgatherv", Ranks: 4, MaxBlock: 64, Seed: 4},
		{Tenant: "t", Op: "reduce_scatter", Ranks: 4, MaxBlock: 64, Reduce: "xor", Seed: 5},
		{Tenant: "t", Op: "allreduce", Ranks: 4, MaxBlock: 64, Reduce: "max", Seed: 6},
	}
	w, err := bruckv.NewWorld(4, bruckv.WithMachine(bruckv.ZeroCost()), bruckv.WithExecutor(bruckv.Events))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, req := range reqs {
		want, err := service.Digest(w, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oracleDigest(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: oracle digest %s, service.Digest %s", req.Op, got, want)
		}
	}
}

func TestTwoPhaseMessagesClosedForm(t *testing.T) {
	for _, P := range []int{2, 3, 5, 8, 13} {
		w, err := bruckv.NewWorld(P, bruckv.WithPhantom(), bruckv.WithExecutor(bruckv.Events))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *bruckv.Comm) error {
			counts := make([]int, P)
			for i := range counts {
				counts[i] = 1 + (c.Rank()+i)%4
			}
			rcounts := make([]int, P)
			for i := range rcounts {
				rcounts[i] = 1 + (i+c.Rank())%4
			}
			sd, _ := bruckv.Displacements(counts)
			rd, _ := bruckv.Displacements(rcounts)
			return c.AlltoallvWith(bruckv.TwoPhaseBruck, nil, counts, sd, nil, rcounts, rd)
		})
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := w.TotalMessages(), twoPhaseMessages(P); got != want {
			t.Errorf("P=%d: %d messages, closed form %d", P, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric names
// and units in step with what the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(listed), len(printed))
		}
		for i, m := range printed {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					what, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the command %s", i, wl.Name, workloadOrder[i])
		}
	}
}
