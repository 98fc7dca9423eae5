package coll

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bruckv/internal/buffer"
	"bruckv/internal/fault"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// Family conformance grid: every registered allgatherv, reduce-scatter,
// and allreduce implementation — blocking, nonblocking, and persistent —
// must be byte-exact against a locally computed oracle (the expected
// result derived from the deterministic input pattern, with no
// communication) on every shape, under chaos and loss plans, on both
// executor backends.

// famByte is the deterministic contribution pattern: byte j of rank r's
// payload.
func famByte(r, j int) byte {
	return byte(r*31 + j*7 + 11)
}

// famOps are the reduction operators the reducing grids sweep.
var famOps = []ReduceOp{OpSum, OpMax, OpMin, OpXor}

// famShapes are the per-rank block/segment size functions of the grid.
var famShapes = []struct {
	name  string
	count func(P, i int) int
}{
	{"uniform", func(P, i int) int { return 9 }},
	{"empty", func(P, i int) int { return 0 }},
	{"one-contributor", func(P, i int) int {
		if i == 0 {
			return 23
		}
		return 0
	}},
	{"skew", func(P, i int) int {
		if i == P/2 {
			return 331
		}
		return 3
	}},
	{"varied", func(P, i int) int { return (i*13 + 5) % 27 }},
}

var famSizes = []int{1, 2, 5, 8, 16, 23}

// famCounts materializes a shape at P ranks.
func famCounts(P int, shape func(P, i int) int) []int {
	counts := make([]int, P)
	for i := range counts {
		counts[i] = shape(P, i)
	}
	return counts
}

// agOracle returns the expected allgatherv receive buffer: block i is
// rank i's pattern.
func agOracle(rcounts, rdispls []int, rTotal int) buffer.Buf {
	want := buffer.New(rTotal)
	for i, c := range rcounts {
		for j := 0; j < c; j++ {
			want.SetByte(rdispls[i]+j, famByte(i, j))
		}
	}
	return want
}

// rsVector returns rank r's reduce-scatter input vector for a packed
// layout of the given total.
func rsVector(r, total int) buffer.Buf {
	v := buffer.New(total)
	for j := 0; j < total; j++ {
		v.SetByte(j, famByte(r, j))
	}
	return v
}

// rsOracle returns the expected reduced segment of rank k: op over all
// ranks' pattern bytes at the segment's offsets.
func rsOracle(op ReduceOp, P, k int, displs, counts []int) buffer.Buf {
	want := buffer.New(counts[k])
	for j := 0; j < counts[k]; j++ {
		want.SetByte(j, famByte(0, displs[k]+j))
	}
	for r := 1; r < P; r++ {
		contrib := make([]byte, counts[k])
		for j := range contrib {
			contrib[j] = famByte(r, displs[k]+j)
		}
		if counts[k] > 0 {
			op.Combine(want.Bytes(), contrib)
		}
	}
	return want
}

// arOracle returns the expected allreduce vector: op over all ranks'
// n-byte patterns.
func arOracle(op ReduceOp, P, n int) buffer.Buf {
	want := buffer.New(n)
	for j := 0; j < n; j++ {
		want.SetByte(j, famByte(0, j))
	}
	for r := 1; r < P; r++ {
		contrib := make([]byte, n)
		for j := range contrib {
			contrib[j] = famByte(r, j)
		}
		if n > 0 {
			op.Combine(want.Bytes(), contrib)
		}
	}
	return want
}

// famWorld builds the default conformance world, with transport checks
// on so a payload used after it went back to the pool reads poison.
func famWorld(t *testing.T, P int, opts ...mpi.Option) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(P, append([]mpi.Option{mpi.WithModel(machine.Zero()), mpi.WithTransportChecks()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkAllgathervAll runs every registered allgatherv (plus the
// nonblocking and persistent paths) inside one world run and asserts
// byte-exactness against the local oracle.
func checkAllgathervAll(p *mpi.Proc, P int, rcounts []int) error {
	rdispls, rTotal := ContigDispls(rcounts)
	rank := p.Rank()
	send := buffer.New(rcounts[rank])
	for j := 0; j < rcounts[rank]; j++ {
		send.SetByte(j, famByte(rank, j))
	}
	want := agOracle(rcounts, rdispls, rTotal)
	algs := AllgathervAlgorithms()
	// Sorted order: map iteration order differs per rank, and ranks must
	// enter the same collective together.
	for _, name := range Names(algs) {
		got := buffer.New(rTotal)
		if err := algs[name](p, send, rcounts[rank], got, rcounts, rdispls); err != nil {
			return fmt.Errorf("allgatherv/%s: %w", name, err)
		}
		if !buffer.Equal(got, want) {
			return fmt.Errorf("allgatherv/%s: rank %d: wrong bytes", name, rank)
		}
	}
	// Nonblocking: initiate, charge unrelated compute, wait.
	got := buffer.New(rTotal)
	req, err := IAllgatherv(p, AllgathervBruck, send, rcounts[rank], got, rcounts, rdispls)
	if err != nil {
		return fmt.Errorf("iallgatherv: %w", err)
	}
	p.Charge(100)
	if err := req.Wait(); err != nil {
		return fmt.Errorf("iallgatherv wait: %w", err)
	}
	if !buffer.Equal(got, want) {
		return fmt.Errorf("iallgatherv: rank %d: wrong bytes", rank)
	}
	// Persistent: two starts must both be exact.
	h, err := AllgathervInit(p, rcounts, rdispls)
	if err != nil {
		return fmt.Errorf("allgatherv init: %w", err)
	}
	defer h.Free()
	for round := 0; round < 2; round++ {
		got := buffer.New(rTotal)
		if err := h.Start(send, got); err != nil {
			return fmt.Errorf("persistent allgatherv round %d: %w", round, err)
		}
		if !buffer.Equal(got, want) {
			return fmt.Errorf("persistent allgatherv round %d: rank %d: wrong bytes", round, rank)
		}
	}
	if h.Executions() != 2 {
		return fmt.Errorf("persistent allgatherv: %d executions recorded, want 2", h.Executions())
	}
	return nil
}

// checkReduceScatterAll does the same for the reduce-scatter family.
func checkReduceScatterAll(p *mpi.Proc, op ReduceOp, P int, counts []int) error {
	displs, total := ContigDispls(counts)
	rank := p.Rank()
	send := rsVector(rank, total)
	want := rsOracle(op, P, rank, displs, counts)
	algs := ReduceScatterAlgorithms()
	for _, name := range Names(algs) {
		got := buffer.New(counts[rank])
		if err := algs[name](p, op, send, counts, got); err != nil {
			return fmt.Errorf("reduce-scatter/%s(%v): %w", name, op, err)
		}
		if !buffer.Equal(got, want) {
			return fmt.Errorf("reduce-scatter/%s(%v): rank %d: wrong bytes", name, op, rank)
		}
	}
	got := buffer.New(counts[rank])
	req, err := IReduceScatter(p, ReduceScatterHalving, op, send, counts, got)
	if err != nil {
		return fmt.Errorf("ireducescatter: %w", err)
	}
	p.Charge(100)
	if err := req.Wait(); err != nil {
		return fmt.Errorf("ireducescatter wait: %w", err)
	}
	if !buffer.Equal(got, want) {
		return fmt.Errorf("ireducescatter: rank %d: wrong bytes", rank)
	}
	h, err := ReduceScatterInit(p, op, counts)
	if err != nil {
		return fmt.Errorf("reduce-scatter init: %w", err)
	}
	defer h.Free()
	for round := 0; round < 2; round++ {
		got := buffer.New(counts[rank])
		if err := h.Start(send, got); err != nil {
			return fmt.Errorf("persistent reduce-scatter round %d: %w", round, err)
		}
		if !buffer.Equal(got, want) {
			return fmt.Errorf("persistent reduce-scatter round %d: rank %d: wrong bytes", round, rank)
		}
	}
	return nil
}

// checkAllreduceAll does the same for the allreduce family.
func checkAllreduceAll(p *mpi.Proc, op ReduceOp, P, n int) error {
	rank := p.Rank()
	send := buffer.New(n)
	for j := 0; j < n; j++ {
		send.SetByte(j, famByte(rank, j))
	}
	want := arOracle(op, P, n)
	algs := AllreduceAlgorithms()
	for _, name := range Names(algs) {
		got := buffer.New(n)
		if err := algs[name](p, op, send, got, n); err != nil {
			return fmt.Errorf("allreduce/%s(%v): %w", name, op, err)
		}
		if !buffer.Equal(got, want) {
			return fmt.Errorf("allreduce/%s(%v): rank %d: wrong bytes", name, op, rank)
		}
	}
	got := buffer.New(n)
	req, err := IAllreduce(p, AllreduceRSAG, op, send, got, n)
	if err != nil {
		return fmt.Errorf("iallreduce: %w", err)
	}
	p.Charge(100)
	if err := req.Wait(); err != nil {
		return fmt.Errorf("iallreduce wait: %w", err)
	}
	if !buffer.Equal(got, want) {
		return fmt.Errorf("iallreduce: rank %d: wrong bytes", rank)
	}
	h, err := AllreduceInit(p, op, n)
	if err != nil {
		return fmt.Errorf("allreduce init: %w", err)
	}
	defer h.Free()
	for round := 0; round < 2; round++ {
		got := buffer.New(n)
		if err := h.Start(send, got); err != nil {
			return fmt.Errorf("persistent allreduce (%s) round %d: %w", h.Algorithm(), round, err)
		}
		if !buffer.Equal(got, want) {
			return fmt.Errorf("persistent allreduce (%s) round %d: rank %d: wrong bytes", h.Algorithm(), round, rank)
		}
	}
	return nil
}

// TestFamilyConformanceGrid is the main grid: sizes × shapes ×
// operators, every algorithm and entry point, against local oracles.
func TestFamilyConformanceGrid(t *testing.T) {
	for _, P := range famSizes {
		for _, shape := range famShapes {
			t.Run(fmt.Sprintf("P%d/%s", P, shape.name), func(t *testing.T) {
				counts := famCounts(P, shape.count)
				w := famWorld(t, P)
				err := w.Run(func(p *mpi.Proc) error {
					if err := checkAllgathervAll(p, P, counts); err != nil {
						return err
					}
					// One operator per (P, shape) cell keeps the grid
					// tractable; the operator axis gets full coverage
					// from the allreduce sweep below and the fuzzer.
					op := famOps[(P+len(shape.name))%len(famOps)]
					return checkReduceScatterAll(p, op, P, counts)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for _, P := range []int{1, 3, 8, 13} {
		for _, n := range []int{0, 1, 17, 257, 2048} {
			t.Run(fmt.Sprintf("allreduce/P%d/n%d", P, n), func(t *testing.T) {
				w := famWorld(t, P)
				err := w.Run(func(p *mpi.Proc) error {
					for _, op := range famOps {
						if err := checkAllreduceAll(p, op, P, n); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFamilyChaosByteExact runs the families under the chaos grid's
// perturbation plans on the priced model: stragglers and jitter reorder
// arrivals, results must not move.
func TestFamilyChaosByteExact(t *testing.T) {
	const P = 9
	counts := famCounts(P, func(_, i int) int { return (i*13 + 5) % 27 })
	for _, seed := range []uint64{1, 2, 3} {
		pl := fault.Plan{Seed: seed, NumStragglers: 2, Slowdown: 4, Jitter: 0.4}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := chaosWorld(t, P, pl)
			err := w.Run(func(p *mpi.Proc) error {
				if err := checkAllgathervAll(p, P, counts); err != nil {
					return err
				}
				if err := checkReduceScatterAll(p, OpSum, P, counts); err != nil {
					return err
				}
				return checkAllreduceAll(p, OpMax, P, 129)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFamilyLossRecovery runs the families over the lossy reliable
// transport: with loss, duplication, and corruption injected, a run
// either completes byte-exact or fails with the typed rank-failure
// error — never wrong bytes.
func TestFamilyLossRecovery(t *testing.T) {
	const P = 8
	counts := famCounts(P, func(_, i int) int { return (i*11 + 3) % 19 })
	for _, seed := range []uint64{4, 5} {
		pl := fault.Plan{Seed: seed, Loss: 0.2, Dup: 0.1, Corrupt: 0.1}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := famWorld(t, P, mpi.WithFaults(pl), mpi.WithDeadline(2*time.Minute))
			err := w.Run(func(p *mpi.Proc) error {
				if err := checkAllgathervAll(p, P, counts); err != nil {
					return err
				}
				if err := checkReduceScatterAll(p, OpXor, P, counts); err != nil {
					return err
				}
				return checkAllreduceAll(p, OpSum, P, 65)
			})
			if err != nil {
				var rfe *mpi.RankFailedError
				if !errors.As(err, &rfe) {
					t.Fatalf("untyped failure under %+v: %v", pl, err)
				}
			}
		})
	}
}

// TestFamilyExecutorDiff runs the family grid cell on both executor
// backends and demands identical payload results and bit-identical
// virtual timings, clean and under a chaos plan.
func TestFamilyExecutorDiff(t *testing.T) {
	const P = 9
	counts := famCounts(P, func(_, i int) int { return (i*13 + 5) % 27 })
	body := func(p *mpi.Proc) error {
		if err := checkAllgathervAll(p, P, counts); err != nil {
			return err
		}
		if err := checkReduceScatterAll(p, OpSum, P, counts); err != nil {
			return err
		}
		return checkAllreduceAll(p, OpMin, P, 200)
	}
	for _, tc := range []struct {
		name string
		opts []mpi.Option
	}{
		{"clean", nil},
		{"chaos", []mpi.Option{mpi.WithFaults(fault.Plan{Seed: 7, NumStragglers: 2, Slowdown: 4, Jitter: 0.3})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wg, we := diffWorlds(t, P, tc.opts...)
			if err := wg.Run(body); err != nil {
				t.Fatalf("goroutines: %v", err)
			}
			if err := we.Run(body); err != nil {
				t.Fatalf("events: %v", err)
			}
			diffStats(t, "families/"+tc.name, wg, we)
		})
	}
}

// TestFamilyValidation checks the argument discipline: malformed calls
// fail on every rank before any communication, with the documented
// sentinel for bad operators.
func TestFamilyValidation(t *testing.T) {
	const P = 4
	w := famWorld(t, P)
	err := w.Run(func(p *mpi.Proc) error {
		good := []int{4, 4, 4, 4}
		displs, total := ContigDispls(good)
		buf := buffer.New(total)
		seg := buffer.New(4)

		// Wrong scount vs rcounts[rank].
		if err := AllgathervBruck(p, seg, 3, buf, good, displs); err == nil {
			return errors.New("allgatherv accepted scount != rcounts[rank]")
		}
		// Overflowing displacement must be rejected, not wrapped.
		overDispls := []int{0, 4, 8, 1<<63 - 3}
		if err := AllgathervBruck(p, seg, 4, buf, good, overDispls); err == nil ||
			!strings.Contains(err.Error(), "overflows") {
			return fmt.Errorf("allgatherv overflow guard: %v", err)
		}
		// Negative count.
		if err := ReduceScatterHalving(p, OpSum, buf, []int{4, -1, 4, 4}, seg); err == nil {
			return errors.New("reduce-scatter accepted a negative count")
		}
		// Invalid operator: the sentinel must be wrapped.
		if err := ReduceScatterHalving(p, ReduceOp(99), buf, good, seg); !errors.Is(err, ErrInvalidOp) {
			return fmt.Errorf("reduce-scatter bad op: %v", err)
		}
		if err := AllreduceDoubling(p, ReduceOp(-1), seg, seg, 4); !errors.Is(err, ErrInvalidOp) {
			return fmt.Errorf("allreduce bad op: %v", err)
		}
		if _, err := AllreduceInit(p, ReduceOp(99), 4); !errors.Is(err, ErrInvalidOp) {
			return fmt.Errorf("allreduce init bad op: %v", err)
		}
		// Negative vector size.
		if err := AllreduceRSAG(p, OpSum, seg, seg, -1); err == nil {
			return errors.New("allreduce accepted a negative vector size")
		}
		// Short buffers.
		if err := AllreduceDoubling(p, OpSum, seg, seg, 5); err == nil {
			return errors.New("allreduce accepted a short buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFamilySelection pins the Auto selectors' decision structure: the
// allreduce crossover (doubling for tiny vectors, rsag for huge ones on
// a latency-dominated model), determinism, and the trace phase label.
func TestFamilySelection(t *testing.T) {
	m := machine.Theta()
	small := SelectAllreduce(m, 64, 8)
	if small.Algorithm != "doubling" {
		t.Errorf("tiny-vector allreduce picked %q, want doubling (candidates %v)", small.Algorithm, small.Candidates)
	}
	big := SelectAllreduce(m, 64, 1<<22)
	if big.Algorithm != "rsag" {
		t.Errorf("huge-vector allreduce picked %q, want rsag (candidates %v)", big.Algorithm, big.Candidates)
	}
	if !strings.HasPrefix(big.PhaseLabel(), "auto:rsag pred=") {
		t.Errorf("phase label %q", big.PhaseLabel())
	}
	for i := 0; i < 3; i++ {
		if s := SelectAllgatherv(m, 32, 1<<20); s.Algorithm != SelectAllgatherv(m, 32, 1<<20).Algorithm {
			t.Fatal("allgatherv selection not deterministic")
		} else if s.Source != "analytic" {
			t.Fatalf("source %q", s.Source)
		}
	}
	if s := SelectReduceScatter(m, 16, 1<<18); s.PredictedNs <= 0 {
		t.Errorf("reduce-scatter estimate not positive: %+v", s)
	}
}

// FuzzFamilies drives all three families against their local oracles
// over fuzzer-chosen world sizes, shapes, and operators.
func FuzzFamilies(f *testing.F) {
	f.Add(4, 16, uint64(1), uint8(0))
	f.Add(1, 0, uint64(0), uint8(1))
	f.Add(13, 9, uint64(7), uint8(2))
	f.Add(23, 30, uint64(3), uint8(3))
	f.Fuzz(func(t *testing.T, P, maxC int, seed uint64, pick uint8) {
		if P < 1 {
			P = 1
		}
		P = P%24 + 1
		maxC = maxC % 40
		if maxC < 0 {
			maxC = -maxC
		}
		op := famOps[int(pick)%len(famOps)]
		counts := make([]int, P)
		for i := range counts {
			if maxC > 0 {
				counts[i] = int((seed*31 + uint64(i)*17) % uint64(maxC+1))
			}
		}
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *mpi.Proc) error {
			if err := checkAllgathervAll(p, P, counts); err != nil {
				return err
			}
			if err := checkReduceScatterAll(p, op, P, counts); err != nil {
				return err
			}
			return checkAllreduceAll(p, op, P, (maxC*7)%97)
		})
		if err != nil {
			t.Fatalf("P=%d maxC=%d seed=%d op=%v: %v", P, maxC, seed, op, err)
		}
	})
}
