package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"bruckv"
	"bruckv/internal/coll"
	"bruckv/internal/dist"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// layout is one generated Alltoallv input: per-rank counts and
// displacements and, with real payloads, each rank's send bytes, the
// bytes the naive transpose says it must receive, and its receive
// buffer.
type layout struct {
	name           string
	sc, sd, rc, rd [][]int
	send, want     [][]byte
	recv           [][]byte
	maxBlock       int
	avgBlock       float64
	nonSelfBytes   int64
	transposeNs    float64 // the naive transpose's own time, the plain baseline
}

// layoutSpec names a layout's block-size distribution.
type layoutSpec struct {
	name string
	spec dist.Spec
}

// makeLayout generates the counts (and, when real, the payloads and
// the transpose oracle) of spec on P ranks.
func makeLayout(ls layoutSpec, P int, real bool, rng *splitmix) *layout {
	L := &layout{name: ls.name}
	M := make([][]int, P)
	var total int64
	for s := range M {
		M[s] = make([]int, P)
		for d := range M[s] {
			n := ls.spec.BlockSize(s, d, P)
			M[s][d] = n
			L.maxBlock = max(L.maxBlock, n)
			total += int64(n)
			if s != d {
				L.nonSelfBytes += int64(n)
			}
		}
	}
	L.avgBlock = float64(total) / float64(P) / float64(P)
	L.sc, L.rc = M, make([][]int, P)
	L.sd, L.rd = make([][]int, P), make([][]int, P)
	for r := 0; r < P; r++ {
		L.rc[r] = make([]int, P)
		for s := 0; s < P; s++ {
			L.rc[r][s] = M[s][r]
		}
		L.sd[r], _ = bruckv.Displacements(L.sc[r])
		L.rd[r], _ = bruckv.Displacements(L.rc[r])
	}
	if real {
		L.send, L.recv = make([][]byte, P), make([][]byte, P)
		for r := 0; r < P; r++ {
			_, st := bruckv.Displacements(L.sc[r])
			_, rt := bruckv.Displacements(L.rc[r])
			L.send[r] = make([]byte, st)
			rng.fill(L.send[r])
			L.recv[r] = make([]byte, rt)
		}
		t0 := time.Now()
		L.want = transpose(L.send, L.sc, L.sd)
		L.transposeNs = float64(time.Since(t0).Nanoseconds())
	}
	return L
}

// callKind is one way of calling Alltoallv through the public API.
type callKind string

const (
	kindAuto       callKind = "auto"        // blocking, world default (Auto)
	kindTwoPhase   callKind = "two-phase"   // blocking, pinned TwoPhaseBruck
	kindPersistent callKind = "persistent"  // AlltoallvInit, persistentStarts Starts, Free
	kindNonBlock   callKind = "nonblocking" // IAlltoallv, overlapped compute, Wait
	kindPick       callKind = "pick"        // blocking, the algorithm Auto picks (traced-run probe)
)

const (
	persistentStarts = 3
	overlapComputeNs = 2000
)

// a2avConfig describes one Alltoallv workload.
type a2avConfig struct {
	P        int
	phantom  bool
	opts     []bruckv.Option
	layouts  []layoutSpec
	kinds    []callKind
	nbAlg    bruckv.Algorithm // the non-blocking calls' algorithm
	executor mpi.Executor
}

// call is one operation of the fixed sequence: a layout and a kind.
type call struct {
	L    *layout
	kind callKind
	pick bruckv.Algorithm
}

// virt is a call's deterministic virtual record.
type virt struct {
	maxNs       float64
	bytes, msgs int64
}

func smallRealConfig(seed uint64) a2avConfig {
	return a2avConfig{
		P:    32,
		opts: []bruckv.Option{bruckv.WithMachine(bruckv.Theta()), bruckv.WithExecutor(bruckv.Events)},
		layouts: []layoutSpec{
			{"tc-powerlaw", dist.Spec{Kind: dist.PowerLaw, N: 2048, Base: 0.97, Seed: seed}},
			{"kcfa-powerlaw", dist.Spec{Kind: dist.PowerLaw, N: 4096, Base: 0.90, Seed: seed + 1}},
			{"uniform-1k", dist.Spec{Kind: dist.Uniform, N: 1024, Seed: seed + 2}},
			{"tc-powerlaw-b", dist.Spec{Kind: dist.PowerLaw, N: 2048, Base: 0.97, Seed: seed + 3}},
			{"kcfa-powerlaw-b", dist.Spec{Kind: dist.PowerLaw, N: 4096, Base: 0.90, Seed: seed + 4}},
			{"uniform-256", dist.Spec{Kind: dist.Uniform, N: 256, Seed: seed + 5}},
			{"uniform-1k-b", dist.Spec{Kind: dist.Uniform, N: 1024, Seed: seed + 6}},
			{"uniform-256-b", dist.Spec{Kind: dist.Uniform, N: 256, Seed: seed + 7}},
		},
		kinds:    []callKind{kindAuto, kindTwoPhase, kindPersistent, kindNonBlock},
		nbAlg:    bruckv.Auto,
		executor: mpi.ExecutorEvents,
	}
}

func largePhantomConfig(seed uint64) a2avConfig {
	return a2avConfig{
		P:       1024,
		phantom: true,
		opts: []bruckv.Option{bruckv.WithMachine(bruckv.Theta()), bruckv.WithPhantom(),
			bruckv.WithExecutor(bruckv.Events)},
		layouts: []layoutSpec{
			{"tc-powerlaw", dist.Spec{Kind: dist.PowerLaw, N: 8192, Base: 0.995, Seed: seed}},
			{"uniform-1k", dist.Spec{Kind: dist.Uniform, N: 1024, Seed: seed + 1}},
		},
		kinds:    []callKind{kindTwoPhase, kindNonBlock},
		nbAlg:    bruckv.TwoPhaseBruck,
		executor: mpi.ExecutorEvents,
	}
}

func runSmallReal(e *env) (*result, error)    { return runA2AV(e, smallRealConfig(e.seed)) }
func runLargePhantom(e *env) (*result, error) { return runA2AV(e, largePhantomConfig(e.seed)) }

// runA2AV runs the fixed call sequence on a resident world, closed
// loop, in whole passes until the measured time is up.
func runA2AV(e *env, cfg a2avConfig) (*result, error) {
	res := newResult()
	rng := &splitmix{s: e.seed}
	var seq []call
	var transposeNs float64
	model := machine.Theta()
	for _, ls := range cfg.layouts {
		L := makeLayout(ls, cfg.P, !cfg.phantom, rng)
		transposeNs += L.transposeNs
		sel := coll.Select(model, nil, cfg.P, L.maxBlock, L.avgBlock)
		pick, err := bruckv.ParseAlgorithm(sel.Algorithm)
		if err != nil {
			return nil, err
		}
		for _, k := range cfg.kinds {
			seq = append(seq, call{L: L, kind: k, pick: pick})
		}
	}

	if !cfg.phantom {
		fmt.Fprintf(os.Stderr, "perfbench: naive transpose of the %d layouts: %.0f us\n", len(cfg.layouts), transposeNs/1e3)
	}
	var heapBefore runtime.MemStats
	if e.tr.on {
		runtime.GC()
		runtime.ReadMemStats(&heapBefore)
	}
	t0 := time.Now()
	w, err := bruckv.NewWorld(cfg.P, cfg.opts...)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	newWorld := since(t0)
	x := &a2avRun{e: e, cfg: cfg, w: w, res: res}
	first := x.pass(seq, false) // warm-up: the first Run spawns the session
	res.setupS = since(t0)
	if e.tr.on {
		var heapAfter runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heapAfter)
		res.layer["mpi.new_world_ms"] = newWorld * 1e3
		if cfg.phantom {
			res.layer["mpi.events_heap_kb_per_rank"] =
				float64(int64(heapAfter.HeapAlloc)-int64(heapBefore.HeapAlloc)) / 1024 / float64(cfg.P)
		}
	}

	var rates []float64
	var gc0 runtime.MemStats
	if e.tr.on {
		runtime.ReadMemStats(&gc0)
	}
	heap := startHeapMeter()
	start := time.Now()
	for passes := 0; passes == 0 || since(start) < e.seconds; passes++ {
		x.busyNs = 0
		got := x.pass(seq, true)
		rates = append(rates, float64(len(seq))/(x.busyNs/1e9))
		for i := range got {
			res.check(got[i] == first[i], "%s %s call %d: virtual record %+v differs from the first pass's %+v",
				seq[i].L.name, seq[i].kind, i, got[i], first[i])
		}
	}
	res.heapMB = heap.finish()
	res.opsPerS = percentile(rates, 50)
	if e.tr.on {
		var gc1 runtime.MemStats
		runtime.ReadMemStats(&gc1)
		x.gcPauseNs = float64(gc1.PauseTotalNs - gc0.PauseTotalNs)
	}
	for _, v := range first {
		res.virtualMs += v.maxNs / 1e6
	}
	if !cfg.phantom {
		if err := x.checkExecutors(seq, first); err != nil {
			return nil, err
		}
	}
	if e.tr.on {
		x.layerMetrics(seq)
	}
	return res, nil
}

// a2avRun is one workload run's state.
type a2avRun struct {
	e   *env
	cfg a2avConfig
	w   *bruckv.World
	res *result

	busyNs    float64 // summed call time of the current pass
	gcPauseNs float64 // stop-the-world pauses over the timed loop (traced runs)

	// per-kind host latency, rank-0 persistent spans, per-call
	// telemetry (traced runs only)
	byKind       map[callKind][]float64
	persistInit  []float64
	persistStart []float64
	stats        []bruckv.Stats
}

// pass runs the whole sequence once and returns each call's virtual
// record. Timed passes add their latencies to the result.
func (x *a2avRun) pass(seq []call, timed bool) []virt {
	out := make([]virt, len(seq))
	for i, c := range seq {
		out[i], _ = x.one(c, timed)
	}
	return out
}

// one makes one call as its own World.Run, checks it, and returns its
// virtual record and host time in ns.
func (x *a2avRun) one(c call, timed bool) (virt, float64) {
	tr, L := x.e.tr, c.L
	op := tr.newOp()
	root := tr.begin("bench.call", 0, op)
	if !x.cfg.phantom {
		for _, b := range L.recv {
			clear(b)
		}
	}
	runSpan := tr.begin("bruckv.World.Run", root.id, op)
	t0 := time.Now()
	err := x.w.Run(func(cm *bruckv.Comm) error { return x.rank(cm, c, runSpan.id, op) })
	dt := float64(time.Since(t0).Nanoseconds())
	tr.end(runSpan)
	st := x.w.Stats()
	x.res.attempted++
	ok := err == nil
	if err != nil {
		x.res.fail(err)
	} else {
		ok = x.verify(c, st)
	}
	tr.end(root)
	if timed {
		x.busyNs += dt
		key := L.name + "/" + string(c.kind)
		x.res.latency[key] = append(x.res.latency[key], dt)
		if tr.on {
			if x.byKind == nil {
				x.byKind = map[callKind][]float64{}
			}
			x.byKind[c.kind] = append(x.byKind[c.kind], dt)
			x.stats = append(x.stats, st)
		}
	}
	if !ok {
		return virt{}, dt
	}
	return virt{st.MaxTimeNs, st.TotalBytes, st.TotalMessages}, dt
}

// rank is one rank's body of a call.
func (x *a2avRun) rank(cm *bruckv.Comm, c call, parent, op int64) error {
	r, L, tr := cm.Rank(), c.L, x.e.tr
	var send, recv []byte
	if !x.cfg.phantom {
		send, recv = L.send[r], L.recv[r]
	}
	sc, sd, rc, rd := L.sc[r], L.sd[r], L.rc[r], L.rd[r]
	traced := tr.on && r == 0
	span := func(name string) active {
		if !traced {
			return active{}
		}
		return tr.begin(name, parent, op)
	}
	done := func(a active) {
		if traced {
			tr.end(a)
		}
	}
	switch c.kind {
	case kindAuto:
		s := span("bruckv.Comm.Alltoallv")
		defer done(s)
		return cm.Alltoallv(send, sc, sd, recv, rc, rd)
	case kindTwoPhase:
		s := span("bruckv.Comm.AlltoallvWith(two-phase)")
		defer done(s)
		return cm.AlltoallvWith(bruckv.TwoPhaseBruck, send, sc, sd, recv, rc, rd)
	case kindPick:
		s := span("bruckv.Comm.AlltoallvWith(" + c.pick.String() + ")")
		defer done(s)
		return cm.AlltoallvWith(c.pick, send, sc, sd, recv, rc, rd)
	case kindNonBlock:
		s := span("bruckv.Comm.IAlltoallvWith+Wait")
		defer done(s)
		o, err := cm.IAlltoallvWith(x.cfg.nbAlg, send, sc, sd, recv, rc, rd)
		if err != nil {
			return err
		}
		cm.ChargeComputeNs(overlapComputeNs)
		return o.Wait()
	case kindPersistent:
		s := span("bruckv.Comm.AlltoallvInit")
		t0 := time.Now()
		h, err := cm.AlltoallvInit(sc, sd, rc, rd)
		done(s)
		if traced {
			x.persistInit = append(x.persistInit, float64(time.Since(t0).Nanoseconds()))
		}
		if err != nil {
			return err
		}
		defer h.Free()
		for i := 0; i < persistentStarts; i++ {
			s := span("bruckv.Persistent.Start")
			t0 := time.Now()
			err := h.Start(send, recv)
			done(s)
			if traced {
				x.persistStart = append(x.persistStart, float64(time.Since(t0).Nanoseconds()))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown call kind %q", c.kind)
}

// verify checks one successful call against the oracles: the naive
// transpose for real payloads; the two-phase message closed form and
// byte conservation for phantom ones; and the payload pool's balance.
func (x *a2avRun) verify(c call, st bruckv.Stats) bool {
	res, L := x.res, c.L
	ok := res.check(st.Pool.Outstanding() == 0, "%s %s: %d pooled payloads outstanding after the run",
		L.name, c.kind, st.Pool.Outstanding())
	if x.cfg.phantom {
		want := twoPhaseMessages(x.cfg.P)
		ok = res.check(st.TotalMessages == want, "%s %s: %d messages, closed form says %d",
			L.name, c.kind, st.TotalMessages, want) && ok
		ok = res.check(st.TotalBytes >= L.nonSelfBytes, "%s %s: %d bytes moved, fewer than the %d non-self bytes",
			L.name, c.kind, st.TotalBytes, L.nonSelfBytes) && ok
	} else {
		var got, want int64
		for r := range L.recv {
			if !bytes.Equal(L.recv[r], L.want[r]) {
				ok = res.check(false, "%s %s: rank %d received bytes differ from the naive transpose", L.name, c.kind, r)
			}
			got += int64(len(L.recv[r]))
			want += int64(len(L.send[r]))
		}
		ok = res.check(got == want, "%s %s: %d bytes received, %d sent", L.name, c.kind, got, want) && ok
	}
	if !ok {
		res.failures[faultName(errWrongOutput)]++
	}
	return ok
}

// checkExecutors replays one pass on a goroutine-executor world and
// checks that every call's virtual record equals the event
// executor's. The goroutine executor's deadlock verdict is a timing
// probe that can fire on a healthy run under load; a replay call it
// aborts is retried (at most twice), and each retry is logged.
func (x *a2avRun) checkExecutors(seq []call, first []virt) error {
	opts := append(x.cfg.opts[:len(x.cfg.opts):len(x.cfg.opts)], bruckv.WithExecutor(bruckv.Goroutines))
	w, err := bruckv.NewWorld(x.cfg.P, opts...)
	if err != nil {
		return err
	}
	defer w.Close()
	other := &a2avRun{e: &env{seed: x.e.seed, tr: newTracer(false)}, cfg: x.cfg, w: w, res: newResult()}
	retried := 0
	for i, c := range seq {
		got, _ := other.one(c, false)
		for attempt := 1; attempt < 3 && other.res.failures["deadlock"] > retried; attempt++ {
			retried++
			fmt.Fprintf(os.Stderr, "perfbench: goroutine-executor replay of %s %s: deadlock verdict on a healthy call, retrying\n",
				c.L.name, c.kind)
			got, _ = other.one(c, false)
		}
		x.res.check(got == first[i], "%s %s: goroutine executor virtual record %+v, event executor %+v",
			c.L.name, c.kind, got, first[i])
	}
	for _, msg := range other.res.wrong {
		x.res.check(false, "goroutine executor replay: %s", msg)
	}
	x.res.check(other.res.failed() == retried, "goroutine executor replay: %d calls failed", other.res.failed()-retried)
	return nil
}

// layerMetrics derives the traced run's per-layer metrics.
func (x *a2avRun) layerMetrics(seq []call) {
	m := x.res.layer
	if x.cfg.phantom {
		m["mpi.events_us_per_call"] = x.res.latencyMs(50) * 1e3
	} else {
		x.autoVsPick(seq)
		m["coll.two_phase_us_per_call"] = percentile(x.byKind[kindTwoPhase], 50) / 1e3
		m["coll.nonblocking_us_per_call"] = percentile(x.byKind[kindNonBlock], 50) / 1e3
		m["coll.persistent_init_us"] = percentile(x.persistInit, 50) / 1e3
		m["coll.persistent_start_us"] = percentile(x.persistStart, 50) / 1e3
	}
	var msgs, byts, allocs, allocB float64
	var pool, scratch bruckv.PoolStats
	for _, st := range x.stats {
		msgs += float64(st.TotalMessages)
		byts += float64(st.TotalBytes)
		allocs += float64(st.Mallocs)
		allocB += float64(st.AllocBytes)
		pool.Gets += st.Pool.Gets
		pool.Hits += st.Pool.Hits
		scratch.Gets += st.Scratch.Gets
		scratch.Hits += st.Scratch.Hits
	}
	n := float64(len(x.stats))
	m["coll.msgs_per_call"] = msgs / n
	m["coll.bytes_per_call"] = byts / n
	m["buffer.allocs_per_call"] = allocs / n
	m["buffer.alloc_kb_per_call"] = allocB / n / 1024
	m["buffer.gc_pause_ms"] = x.gcPauseNs / n / 1e6
	m["buffer.pool_hit_rate"] = pool.HitRate()
	m["buffer.scratch_hit_rate"] = scratch.HitRate()
	x.mpiProbes()
}

// autoVsPick runs every layout through Auto and through the algorithm
// Auto picks for it, interleaved, so the gap between the two is Auto's
// own cost; the pick's measured virtual time also scores PredictNs.
func (x *a2avRun) autoVsPick(seq []call) {
	const rounds = 10
	var autoNs, pickNs, errPct []float64
	for i := 0; i < rounds; i++ {
		for _, c := range seq {
			if c.kind != kindAuto {
				continue
			}
			_, dt := x.one(c, false)
			autoNs = append(autoNs, dt)
			pc := c
			pc.kind = kindPick
			v, dt := x.one(pc, false)
			pickNs = append(pickNs, dt)
			if i == 0 && v.maxNs > 0 {
				pred := bruckv.PredictNs(c.pick, x.cfg.P, c.L.maxBlock, bruckv.Theta())
				errPct = append(errPct, 100*abs(pred-v.maxNs)/v.maxNs)
			}
		}
	}
	m := x.res.layer
	m["coll.auto_us_per_call"] = percentile(autoNs, 50) / 1e3
	m["coll.pick_us_per_call"] = percentile(pickNs, 50) / 1e3
	m["machine.pred_err_pct"] = mean(errPct)
}

// mpiProbes times an empty World.Run on the resident world and a ring
// of 256-byte Send/Recv pairs on an mpi world of the same size and
// executor.
func (x *a2avRun) mpiProbes() {
	const runs = 200
	var rt []float64
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := x.w.Run(func(*bruckv.Comm) error { return nil }); err != nil {
			x.res.fail(err)
			continue
		}
		rt = append(rt, float64(time.Since(t0).Nanoseconds()))
	}
	x.res.layer["mpi.run_roundtrip_us"] = percentile(rt, 50) / 1e3

	const rounds = 64
	P := x.cfg.P
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Theta()), mpi.WithExecutor(x.cfg.executor))
	if err != nil {
		x.res.fail(err)
		return
	}
	defer w.Close()
	ring := func(p *mpi.Proc) error {
		sb, rb := p.AllocReal(256), p.AllocReal(256)
		defer p.FreeBuf(sb, rb)
		next, prev := (p.Rank()+1)%P, (p.Rank()+P-1)%P
		for i := 0; i < rounds; i++ {
			if p.Rank()%2 == 0 {
				p.Send(next, i, sb)
				p.Recv(prev, i, rb)
			} else {
				p.Recv(prev, i, rb)
				p.Send(next, i, sb)
			}
		}
		return nil
	}
	if err := w.Run(ring); err != nil { // warm-up
		x.res.fail(err)
		return
	}
	var ns, allocs []float64
	for i := 0; i < 5; i++ {
		if err := w.Run(ring); err != nil {
			x.res.fail(err)
			return
		}
		st := w.RunStats()
		msgs := float64(P * rounds)
		ns = append(ns, float64(st.WallNs)/msgs)
		allocs = append(allocs, float64(st.Mallocs)/msgs)
	}
	x.res.layer["mpi.send_recv_ns_per_msg"] = percentile(ns, 50)
	x.res.layer["mpi.allocs_per_msg"] = percentile(allocs, 50)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
