package main

import (
	"time"

	"bruckv/internal/graph"
	"bruckv/internal/kcfa"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
	"bruckv/internal/ra"
)

// Application inputs: the paper's two graph regimes and a kCFA
// program, each solved with the two-phase exchange.
const (
	appsP         = 16
	appsAlgorithm = "two-phase"
	chainNodes    = 400
	chainExtra    = 800
	denseNodes    = 350
	denseDegree   = 5
	kcfaStages    = 120
	kcfaFanout    = 4
	kcfaK         = 2
)

// solve is one fixpoint computation of the round.
type solve struct {
	name string
	run  func(p *mpi.Proc) (iters int, paths int64, commNs, totalNs float64, err error)
	want int64 // the oracle's fact count
	// traced-run samples
	hostS, iters, commPct []float64
}

// runApps solves transitive closure on a long chain and on dense
// blocks, then kCFA, on a resident mpi world, closed loop, in whole
// rounds until the measured time is up. An operation is one solve.
func runApps(e *env) (*result, error) {
	res := newResult()
	chain := graph.LongChain(chainNodes, chainExtra, e.seed)
	dense := graph.DenseBlocks(denseNodes, denseDegree, e.seed+1)
	prog := kcfa.Generate(kcfaStages, kcfaFanout, kcfaK, e.seed+2)
	seq := kcfa.Analyze(prog)

	tc := func(edges []graph.Edge) func(p *mpi.Proc) (int, int64, float64, float64, error) {
		return func(p *mpi.Proc) (int, int64, float64, float64, error) {
			r, err := graph.TransitiveClosure(p, edges, appsAlgorithm)
			return r.Iterations, r.TotalPaths, r.CommNs, r.TotalNs, err
		}
	}
	solves := []*solve{
		{name: "graph.TransitiveClosure(chain)", run: tc(chain), want: closureCount(chain)},
		{name: "graph.TransitiveClosure(dense)", run: tc(dense), want: closureCount(dense)},
		{name: "kcfa.Run", want: seq.Facts(), run: func(p *mpi.Proc) (int, int64, float64, float64, error) {
			r, err := kcfa.Run(p, prog, appsAlgorithm)
			return r.Iterations, r.Facts(), r.CommNs, r.TotalNs, err
		}},
	}

	t0 := time.Now()
	w, err := mpi.NewWorld(appsP, mpi.WithModel(machine.Theta()), mpi.WithExecutor(mpi.ExecutorEvents))
	if err != nil {
		return nil, err
	}
	defer w.Close()
	first := appsRound(e, w, solves, res, false)
	res.setupS = since(t0)

	heap := startHeapMeter()
	start := time.Now()
	var rates []float64
	for rounds := 0; rounds == 0 || since(start) < e.seconds; rounds++ {
		t := time.Now()
		got := appsRound(e, w, solves, res, true)
		rates = append(rates, float64(len(solves))/time.Since(t).Seconds())
		res.check(got == first, "virtual time %v ms differs from the first round's %v ms", got, first)
	}
	res.heapMB = heap.finish()
	res.opsPerS = percentile(rates, 50)
	res.virtualMs = first
	if e.tr.on {
		appsLayerMetrics(e, res, solves)
	}
	return res, nil
}

// appsRound runs each solve once as its own World.Run, checks its fact
// count against the oracle, and returns the round's summed virtual
// time in milliseconds.
func appsRound(e *env, w *mpi.World, solves []*solve, res *result, timed bool) float64 {
	tr := e.tr
	var virtualMs float64
	for _, s := range solves {
		op := tr.newOp()
		root := tr.begin("bench.solve", 0, op)
		runSpan := tr.begin("mpi.World.Run", root.id, op)
		var iters int
		var facts int64
		var commNs, totalNs float64
		t0 := time.Now()
		err := w.Run(func(p *mpi.Proc) error {
			var sp active
			if p.Rank() == 0 {
				sp = tr.begin(s.name, runSpan.id, op)
			}
			it, f, c, tot, err := s.run(p)
			if p.Rank() == 0 {
				tr.end(sp)
				iters, facts, commNs, totalNs = it, f, c, tot
			}
			return err
		})
		host := time.Since(t0)
		tr.end(runSpan)
		res.attempted++
		switch {
		case err != nil:
			res.fail(err)
		case !res.check(facts == s.want, "%s: %d facts, the sequential oracle has %d", s.name, facts, s.want):
			res.fail(errWrongOutput)
		case !res.check(w.RunStats().Pool.Outstanding() == 0, "%s: pooled payloads outstanding after the run", s.name):
			res.fail(errWrongOutput)
		}
		virtualMs += w.MaxTime() / 1e6
		tr.end(root)
		if timed {
			res.latency[s.name] = append(res.latency[s.name], float64(host.Nanoseconds()))
		}
		if timed && tr.on {
			s.hostS = append(s.hostS, host.Seconds())
			s.iters = append(s.iters, float64(iters))
			if totalNs > 0 {
				s.commPct = append(s.commPct, 100*commNs/totalNs)
			}
		}
	}
	return virtualMs
}

// appsLayerMetrics derives the traced run's per-layer metrics,
// including direct probes of the ra layer sized like the chain
// closure's exchanges and the dense closure's relation.
func appsLayerMetrics(e *env, res *result, solves []*solve) {
	m := res.layer
	for i, key := range []string{"graph.tc_chain", "graph.tc_dense", "kcfa"} {
		s := solves[i]
		solveKey, itersKey, commKey := key+"_s", key+"_iters", key+"_comm_pct"
		if key == "kcfa" {
			solveKey, itersKey, commKey = "kcfa.solve_s", "kcfa.iters", "kcfa.comm_pct"
		}
		m[solveKey] = percentile(s.hostS, 50)
		m[itersKey] = percentile(s.iters, 50)
		m[commKey] = percentile(s.commPct, 50)
	}

	// ra.Exchange with the chain closure's mean per-iteration routing:
	// its paths spread over its iterations and ranks.
	perRank := int(solves[0].want) / max(int(percentile(solves[0].iters, 50)), 1) / appsP
	w, err := mpi.NewWorld(appsP, mpi.WithModel(machine.Theta()), mpi.WithExecutor(mpi.ExecutorEvents))
	if err != nil {
		res.fail(err)
		return
	}
	defer w.Close()
	const exchanges = 50
	var exUs []float64
	err = w.Run(func(p *mpi.Proc) error {
		ex, err := ra.NewExchanger(p, appsAlgorithm)
		if err != nil {
			return err
		}
		rng := splitmix{s: e.seed ^ uint64(p.Rank()+1)*0x9e3779b97f4a7c15}
		out := make([][]ra.Tuple, appsP)
		for i := 0; i < exchanges; i++ {
			ra.ClearRouted(out)
			for j := 0; j < perRank; j++ {
				t := ra.Tuple{int32(rng.next() % chainNodes), int32(rng.next() % chainNodes)}
				ra.Route(out, t, 1, appsP)
			}
			t0 := time.Now()
			if _, err := ex.Exchange(out); err != nil {
				return err
			}
			if p.Rank() == 0 {
				exUs = append(exUs, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		return nil
	})
	if err != nil {
		res.fail(err)
		return
	}
	m["ra.exchange_us"] = percentile(exUs, 50)

	// Relation inserts and probes at the dense closure's size.
	n := int(solves[1].want)
	rng := splitmix{s: e.seed}
	tuples := make([]ra.Tuple, n)
	for i := range tuples {
		tuples[i] = ra.Tuple{int32(rng.next() % denseNodes), int32(rng.next() % denseNodes)}
	}
	rel := ra.NewRelation("T", 1)
	t0 := time.Now()
	for _, t := range tuples {
		rel.Insert(t)
	}
	m["ra.insert_ns_per_tuple"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	var hits int
	t0 = time.Now()
	for _, t := range tuples {
		hits += len(rel.Probe(t[0]))
	}
	m["ra.probe_ns_per_tuple"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	res.check(hits > 0, "ra probe found no tuples")
}
