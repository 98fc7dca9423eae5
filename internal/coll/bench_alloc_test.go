package coll_test

import (
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
	"bruckv/internal/dist"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// Host-side allocation benchmarks for every registered Alltoallv
// algorithm. Phantom mode isolates the transport and bookkeeping
// allocations (no payload memory exists); the two real-mode benchmarks
// additionally exercise payload cloning on the paper's two headline
// algorithms. allocs/op is the total across all ranks for one
// collective call.

func benchmarkAlltoallvAllocs(b *testing.B, name string, P, n int, phantom bool) {
	alg, ok := coll.NonUniformAlgorithms()[name]
	if !ok {
		b.Fatalf("unknown algorithm %q", name)
	}
	opts := []mpi.Option{}
	if phantom {
		opts = append(opts, mpi.WithPhantom())
	}
	w, err := mpi.NewWorld(P, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = w.Run(func(p *mpi.Proc) error {
		sc := make([]int, P)
		sd := make([]int, P)
		rc := make([]int, P)
		rd := make([]int, P)
		for i := 0; i < P; i++ {
			sc[i], rc[i] = n, n
			sd[i], rd[i] = i*n, i*n
		}
		send := buffer.Make(P*n, phantom)
		recv := buffer.Make(P*n, phantom)
		for i := 0; i < b.N; i++ {
			if err := alg(p, send, sc, sd, recv, rc, rd); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAlltoallvAllocsPhantom covers every registered algorithm at
// P=64 in phantom mode, the configuration the allocation-ceiling tests
// in alloc_test.go assert against.
func BenchmarkAlltoallvAllocsPhantom(b *testing.B) {
	for _, name := range coll.Names(coll.NonUniformAlgorithms()) {
		b.Run(name, func(b *testing.B) {
			benchmarkAlltoallvAllocs(b, name, 64, 64, true)
		})
	}
}

// BenchmarkAlltoallvAllocsReal measures the real-payload hot paths of
// the two headline algorithms, where the pre-pool transport cloned every
// payload.
func BenchmarkAlltoallvAllocsReal(b *testing.B) {
	for _, name := range []string{"spreadout", "two-phase"} {
		b.Run(name, func(b *testing.B) {
			benchmarkAlltoallvAllocs(b, name, 32, 256, false)
		})
	}
}

// BenchmarkTwoPhaseStepLoop times the two-phase step loop on one
// resident world per case: P=1024 in phantom mode on the event
// executor, where the per-block bookkeeping is the whole host cost, and
// P=32 with real payloads, where the copies join it. Blocks follow the
// power-law layout of the application workloads. The layout is built
// and the world warmed before the timer starts; ns/op and allocs/op are
// per collective call, all ranks together.
func BenchmarkTwoPhaseStepLoop(b *testing.B) {
	for _, c := range []struct {
		name    string
		P       int
		phantom bool
	}{{"phantom-P1024", 1024, true}, {"real-P32", 32, false}} {
		b.Run(c.name, func(b *testing.B) {
			P := c.P
			opts := []mpi.Option{mpi.WithModel(machine.Theta())}
			if c.phantom {
				opts = append(opts, mpi.WithPhantom(), mpi.WithExecutor(mpi.ExecutorEvents))
			}
			w, err := mpi.NewWorld(P, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			spec := dist.Spec{Kind: dist.PowerLaw, N: 8192, Base: 0.995, Seed: 1}
			sc, sd, rc, rd := make([][]int, P), make([][]int, P), make([][]int, P), make([][]int, P)
			send, recv := make([]buffer.Buf, P), make([]buffer.Buf, P)
			for r := 0; r < P; r++ {
				sc[r], rc[r] = make([]int, P), make([]int, P)
				spec.Counts(r, P, sc[r], rc[r])
				var st, rt int
				sd[r], st = displs(sc[r])
				rd[r], rt = displs(rc[r])
				send[r], recv[r] = buffer.Make(st, c.phantom), buffer.Make(rt, c.phantom)
			}
			run := func(calls int) {
				err := w.Run(func(p *mpi.Proc) error {
					r := p.Rank()
					for i := 0; i < calls; i++ {
						if err := coll.TwoPhaseBruck(p, send[r], sc[r], sd[r], recv[r], rc[r], rd[r]); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			run(1) // spawn the session, warm the arenas and int scratch
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// displs returns the packed displacements of counts and their total.
func displs(counts []int) ([]int, int) {
	d := make([]int, len(counts))
	t := 0
	for i, c := range counts {
		d[i] = t
		t += c
	}
	return d, t
}
