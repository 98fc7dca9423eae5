package coll

import (
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/mpi"
)

// traceWorkload runs one non-uniform exchange of the named algorithm
// and returns the world.
func traceWorkload(t *testing.T, name string, alg Alltoallv, P, rpn int, opts ...mpi.Option) *mpi.World {
	t.Helper()
	if rpn > 1 {
		opts = append(opts, mpi.WithRanksPerNode(rpn))
	}
	w, err := mpi.NewWorld(P, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		scounts := make([]int, P)
		rcounts := make([]int, P)
		for d := 0; d < P; d++ {
			scounts[d] = 1 + (p.Rank()*3+d*5)%11
			rcounts[d] = 1 + (d*3+p.Rank()*5)%11
		}
		sdispls, sTotal := ContigDispls(scounts)
		rdispls, rTotal := ContigDispls(rcounts)
		send := buffer.New(sTotal)
		send.FillPattern(uint64(p.Rank()))
		recv := buffer.New(rTotal)
		return alg(p, send, scounts, sdispls, recv, rcounts, rdispls)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return w
}

// TestTraceConsistencyAcrossAlgorithms checks, for every registered
// non-uniform algorithm, that (a) trace-derived per-rank totals exactly
// match the runtime's TotalBytes/TotalMessages counters, (b) per-step
// roll-ups never exceed the totals, and (c) tracing does not perturb
// virtual time: MaxTime is identical with tracing on and off.
func TestTraceConsistencyAcrossAlgorithms(t *testing.T) {
	const P = 12
	for name, alg := range NonUniformAlgorithms() {
		rpn := 1
		if name == "hierarchical" {
			rpn = 4
		}
		plain := traceWorkload(t, name, alg, P, rpn)
		traced := traceWorkload(t, name, alg, P, rpn, mpi.WithTrace())

		if got, want := plain.MaxTime(), traced.MaxTime(); got != want {
			t.Errorf("%s: MaxTime perturbed by tracing: %g (off) vs %g (on)", name, got, want)
		}
		tr := traced.Trace()
		if tr == nil {
			t.Fatalf("%s: traced world has nil Trace", name)
		}
		if got, want := tr.TotalBytes(), traced.TotalBytes(); got != want {
			t.Errorf("%s: trace bytes %d != runtime bytes %d", name, got, want)
		}
		if got, want := tr.TotalMessages(), traced.TotalMessages(); got != want {
			t.Errorf("%s: trace msgs %d != runtime msgs %d", name, got, want)
		}
		var stepBytes, stepMsgs int64
		for _, s := range tr.StepStats() {
			stepBytes += s.Bytes
			stepMsgs += s.Msgs
			if s.TimeNs < 0 {
				t.Errorf("%s: step %d has negative time", name, s.Step)
			}
		}
		if stepBytes > tr.TotalBytes() || stepMsgs > tr.TotalMessages() {
			t.Errorf("%s: step roll-up (%d bytes, %d msgs) exceeds totals (%d, %d)",
				name, stepBytes, stepMsgs, tr.TotalBytes(), tr.TotalMessages())
		}
		if len(tr.StepStats()) == 0 {
			t.Errorf("%s: no annotated steps in trace", name)
		}
	}
}

// TestTraceStepCountTwoPhase pins the exact step structure of the
// paper's main algorithm: ceil(log2 P) steps, each sending one metadata
// and one data message per rank.
func TestTraceStepCountTwoPhase(t *testing.T) {
	for _, P := range []int{8, 13, 16} {
		w := traceWorkload(t, "two-phase", TwoPhaseBruck, P, 1, mpi.WithTrace())
		steps := w.Trace().StepStats()
		want := 0
		for 1<<want < P {
			want++
		}
		if len(steps) != want {
			t.Errorf("P=%d: got %d steps, want %d", P, len(steps), want)
		}
		for _, s := range steps {
			// Each rank sends exactly two messages per step (metadata +
			// packed data).
			if s.Msgs != int64(2*P) {
				t.Errorf("P=%d step %d: %d msgs, want %d", P, s.Step, s.Msgs, 2*P)
			}
		}
	}
}

// TestTraceUniformConsistency runs the uniform registry under tracing
// and checks totals reconcile and time is unperturbed.
func TestTraceUniformConsistency(t *testing.T) {
	const P, n = 12, 16
	run := func(alg Alltoall, opts ...mpi.Option) *mpi.World {
		w, err := mpi.NewWorld(P, opts...)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			send := buffer.New(P * n)
			send.FillPattern(uint64(p.Rank()))
			recv := buffer.New(P * n)
			return alg(p, send, n, recv)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for name, alg := range UniformAlgorithms() {
		plain := run(alg)
		traced := run(alg, mpi.WithTrace())
		if plain.MaxTime() != traced.MaxTime() {
			t.Errorf("%s: MaxTime perturbed by tracing", name)
		}
		tr := traced.Trace()
		if tr.TotalBytes() != traced.TotalBytes() || tr.TotalMessages() != traced.TotalMessages() {
			t.Errorf("%s: trace totals (%d, %d) != runtime (%d, %d)", name,
				tr.TotalBytes(), tr.TotalMessages(), traced.TotalBytes(), traced.TotalMessages())
		}
	}
}

// TestTracePersistentStart checks the persistent path records steps
// too: a radix-2 handle's recording and frozen Starts each annotate
// log2(8) steps.
func TestTracePersistentStart(t *testing.T) {
	const P = 8
	w, err := mpi.NewWorld(P, mpi.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		scounts := make([]int, P)
		rcounts := make([]int, P)
		for d := 0; d < P; d++ {
			scounts[d] = 1 + (p.Rank()+d)%5
			rcounts[d] = 1 + (d+p.Rank())%5
		}
		sdispls, sTotal := ContigDispls(scounts)
		rdispls, rTotal := ContigDispls(rcounts)
		h, err := AlltoallvInit(p, 2, scounts, sdispls, rcounts, rdispls)
		if err != nil {
			return err
		}
		defer h.Free()
		send := buffer.New(sTotal)
		recv := buffer.New(rTotal)
		for i := 0; i < 2; i++ {
			if err := h.Start(send, recv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	if len(tr.StepStats()) != 3 { // log2(8)
		t.Errorf("persistent Start recorded %d steps, want 3", len(tr.StepStats()))
	}
	for _, s := range tr.StepStats() {
		// Two recording messages (metadata + data) plus one frozen data
		// message per rank per step.
		if s.Msgs != 3*P {
			t.Errorf("step %d: %d msgs, want %d", s.Step, s.Msgs, 3*P)
		}
	}
	if tr.TotalBytes() != w.TotalBytes() {
		t.Errorf("persistent trace bytes %d != runtime %d", tr.TotalBytes(), w.TotalBytes())
	}
}
