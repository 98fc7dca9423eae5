package coll

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// Differential conformance suite: every registered Alltoallv — including
// the auto selector, tuned and untuned — must be byte-exact with the
// spread-out oracle on every workload shape, and must reject malformed
// inputs with the same discipline (an error on every rank, before any
// communication). The paper's drop-in-replacement claim is only true if
// this holds.

// conformanceImpls returns every implementation under test by name: the
// full registry plus auto variants pinned to each candidate via a
// single-cell calibration table (exercising the tuned dispatch path for
// algorithms the analytic prior might never pick).
func conformanceImpls(P, maxN int) map[string]Alltoallv {
	impls := map[string]Alltoallv{}
	for name, alg := range NonUniformAlgorithms() {
		impls[name] = alg
	}
	for _, cand := range AutoCandidates {
		n := maxN
		if n < 1 {
			n = 1
		}
		table := &Table{Cells: []Cell{{P: P, N: n, Algorithm: cand}}}
		impls["auto-tuned-"+cand] = Auto(table)
	}
	return impls
}

// conformanceCases are the workload shapes of the suite, as size
// matrices f(rank, dst) parameterized by P.
var conformanceCases = []struct {
	name  string
	sizes func(P, rank, dst int) int
}{
	{"uniform", func(P, rank, dst int) int { return 13 }},
	{"empty", func(P, rank, dst int) int { return 0 }},
	{"one-sender", func(P, rank, dst int) int {
		if rank == 0 {
			return 21
		}
		return 0
	}},
	{"one-receiver", func(P, rank, dst int) int {
		if dst == P-1 {
			return 17
		}
		return 0
	}},
	{"empty-blocks", func(P, rank, dst int) int {
		// Every other block empty, sizes otherwise varying.
		if (rank+dst)%2 == 0 {
			return 0
		}
		return 1 + (rank*7+dst*3)%29
	}},
	{"heavy-skew", func(P, rank, dst int) int {
		// One huge block, everything else tiny: the regime where the
		// average is far below the maximum.
		if rank == 1 && dst == 0 {
			return 512
		}
		return 2
	}},
	{"triangular", func(P, rank, dst int) int { return rank * dst }},
}

func maxCellSize(P int, sizes func(P, rank, dst int) int) int {
	m := 0
	for r := 0; r < P; r++ {
		for d := 0; d < P; d++ {
			if s := sizes(P, r, d); s > m {
				m = s
			}
		}
	}
	return m
}

// runConformanceCase runs one implementation on one shape and checks it
// byte-for-byte against the spread-out oracle. Transport checks are on,
// so a payload read after it went back to the pool reads poison, and
// every payload must be back when the run ends.
func runConformanceCase(t *testing.T, name string, alg Alltoallv, P int, sizes func(P, rank, dst int) int) {
	t.Helper()
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()), mpi.WithTransportChecks())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		sc := make([]int, P)
		rc := make([]int, P)
		for d := 0; d < P; d++ {
			sc[d] = sizes(P, p.Rank(), d)
			rc[d] = sizes(P, d, p.Rank())
		}
		sd, sTotal := ContigDispls(sc)
		rd, rTotal := ContigDispls(rc)
		send := buffer.New(sTotal)
		for d := 0; d < P; d++ {
			for j := 0; j < sc[d]; j++ {
				send.SetByte(sd[d]+j, patByte(p.Rank(), d, j))
			}
		}
		oracle := buffer.New(rTotal)
		if err := SpreadOut(p, send, sc, sd, oracle, rc, rd); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		got := buffer.New(rTotal)
		if err := alg(p, send, sc, sd, got, rc, rd); err != nil {
			return err
		}
		if !buffer.Equal(got, oracle) {
			t.Errorf("%s: rank %d differs from the spread-out oracle", name, p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out := w.RunStats().Pool.Outstanding(); out != 0 {
		t.Errorf("%s: %d payloads outstanding after the run", name, out)
	}
}

func TestConformanceAgainstOracle(t *testing.T) {
	for _, P := range []int{1, 2, 7, 16} {
		for _, tc := range conformanceCases {
			impls := conformanceImpls(P, maxCellSize(P, tc.sizes))
			for _, name := range Names(impls) {
				t.Run(fmt.Sprintf("P%d/%s/%s", P, tc.name, name), func(t *testing.T) {
					runConformanceCase(t, name, impls[name], P, tc.sizes)
				})
			}
		}
	}
}

// TestConformanceProperty drives the same differential check with
// generated shapes: random size matrices over random world sizes.
func TestConformanceProperty(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		P := int(pRaw)%10 + 1
		maxN := int(nRaw) % 32
		impls := conformanceImpls(P, maxN)
		names := Names(impls)
		w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(p *mpi.Proc) error {
			send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, seed)
			oracle := buffer.New(rTotal)
			if err := SpreadOut(p, send, sc, sd, oracle, rc, rd); err != nil {
				return err
			}
			for _, name := range names {
				got := buffer.New(rTotal)
				if err := impls[name](p, send, sc, sd, got, rc, rd); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !buffer.Equal(got, oracle) {
					t.Logf("%s differs from oracle at P=%d maxN=%d seed=%d", name, P, maxN, seed)
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// malformedCases build invalid argument sets for a P-rank exchange with
// valid 8-byte blocks as the baseline. Every rank constructs the same
// malformed input, so every implementation must fail on every rank
// during validation, before any rank communicates — otherwise a
// mismatched pair would deadlock.
var malformedCases = []struct {
	name   string
	mangle func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int)
}{
	{"short-scounts", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		return sc[:P-1], sd, rc, rd
	}},
	{"long-rdispls", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		return sc, sd, rc, append(rd, 0)
	}},
	{"negative-scount", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		sc[P/2] = -1
		return sc, sd, rc, rd
	}},
	{"negative-rcount", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		rc[0] = -3
		return sc, sd, rc, rd
	}},
	{"negative-sdispl", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		sd[1] = -1
		return sc, sd, rc, rd
	}},
	{"send-block-past-end", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		sd[P-1] += 8
		return sc, sd, rc, rd
	}},
	// Overflow regressions: displ+count wrapping past MaxInt compares
	// small, so without the explicit guard the bogus block passes the
	// bounds check and indexes the buffer with a wrapped offset.
	{"overflow-send-block", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		sd[P-1] = math.MaxInt - 3
		return sc, sd, rc, rd
	}},
	{"overflow-recv-block", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		rc[P-1] = math.MaxInt
		rd[P-1] = math.MaxInt
		return sc, sd, rc, rd
	}},
	{"recv-block-past-end", func(P int, sc, sd, rc, rd []int) ([]int, []int, []int, []int) {
		rc[P-1] += 1
		return sc, sd, rc, rd
	}},
}

func TestConformanceErrorParity(t *testing.T) {
	const P = 4
	impls := conformanceImpls(P, 8)
	for _, mc := range malformedCases {
		for _, name := range Names(impls) {
			t.Run(mc.name+"/"+name, func(t *testing.T) {
				w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
				if err != nil {
					t.Fatal(err)
				}
				errs := make([]error, P)
				err = w.Run(func(p *mpi.Proc) error {
					sc := make([]int, P)
					rc := make([]int, P)
					for d := 0; d < P; d++ {
						sc[d], rc[d] = 8, 8
					}
					sd, sTotal := ContigDispls(sc)
					rd, rTotal := ContigDispls(rc)
					send, recv := buffer.New(sTotal), buffer.New(rTotal)
					msc, msd, mrc, mrd := mc.mangle(P, sc, sd, rc, rd)
					errs[p.Rank()] = impls[name](p, send, msc, msd, recv, mrc, mrd)
					return nil
				})
				if err != nil {
					t.Fatalf("world error (an implementation communicated on malformed input?): %v", err)
				}
				for rank, e := range errs {
					if e == nil {
						t.Errorf("rank %d accepted malformed input", rank)
					}
				}
			})
		}
	}
}
