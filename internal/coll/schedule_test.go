package coll

import (
	"fmt"
	"testing"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// runDifferential runs alg and oracle on the same workload and asserts
// byte-identical receive buffers.
func runDifferential(t *testing.T, alg, oracle Alltoallv, P, maxN int, seed uint64, label string) {
	t.Helper()
	w, err := mpi.NewWorld(P, mpi.WithModel(machine.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		send, sc, sd, rc, rd, rTotal := vSetup(p.Rank(), P, maxN, seed)
		got := buffer.New(rTotal)
		want := buffer.New(rTotal)
		if err := alg(p, send, sc, sd, got, rc, rd); err != nil {
			return err
		}
		if err := oracle(p, send, sc, sd, want, rc, rd); err != nil {
			return err
		}
		if !buffer.Equal(got, want) {
			t.Errorf("%s: rank %d: results differ", label, p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s P=%d maxN=%d seed=%d: %v", label, P, maxN, seed, err)
	}
}

// oldRadixTags reproduces the pre-fix tag packing of the radix
// variants — base + k*16 + d for position k and digit d — over the
// sub-steps a (P, r) exchange actually runs, returning every tag in
// the order issued. The packing is kept here, in the test, as the
// regression oracle: it must be provably aliasing for the radices the
// fix targets.
func oldRadixTags(P, r int) (meta, data []int) {
	const tagMetaOld, tagDataOld = 200, 220
	for it := newRadixWalk(P, 0, r, nil, nil); it.next(); {
		meta = append(meta, tagMetaOld+it.k*16+it.st.d)
		data = append(data, tagDataOld+it.k*16+it.st.d)
	}
	return meta, data
}

func hasDuplicate(tags []int) bool {
	seen := map[int]bool{}
	for _, tg := range tags {
		if seen[tg] {
			return true
		}
		seen[tg] = true
	}
	return false
}

// TestOldRadixTagPackingAliased proves the bug the sub-step tags fix:
// under base + k*16 + d,
//
//   - the metadata band (base 200) is only 20 below the data band
//     (base 220), so meta(k+1, d) = data(k, d-4) — metadata tags walk
//     into the data band from r = 6 up (d = 5 meets d' = 1);
//   - within one band, (k, d) = (k+1, d-16), which needs d >= 17 and
//     so aliases from r = 18 up.
func TestOldRadixTagPackingAliased(t *testing.T) {
	// Cross-band: r=6 at P=40 runs positions k=0,1 with digits to 5;
	// meta(1,5)=221 collides with data(0,1)=221.
	meta, data := oldRadixTags(40, 6)
	if !hasDuplicate(append(append([]int(nil), meta...), data...)) {
		t.Error("r=6: expected the old packing's metadata tags to walk into the data band")
	}
	// Within-band: r=18 at P=40 runs (k=0, d=17) and (k=1, d=1), which
	// pack to the same tag: 16*0+17 = 16*1+1.
	meta, data = oldRadixTags(40, 18)
	if !hasDuplicate(meta) || !hasDuplicate(data) {
		t.Error("r=18: expected the old packing to alias (k,d) with (k+1,d-16) within a band")
	}
	// The named registry radices (2, 4, 8) never aliased — the bug was
	// latent until the radix became configurable.
	for _, r := range []int{2, 4, 8} {
		meta, data = oldRadixTags(257, r)
		if hasDuplicate(meta) || hasDuplicate(data) {
			t.Errorf("r=%d: old packing unexpectedly aliased", r)
		}
	}
}

// TestRadixSubTagsInjective asserts the fix: over every sub-step of an
// exchange, the uniform, metadata, and data tags — derived from the
// running step index into three disjoint bands — are pairwise distinct
// within and across their bands, for radices well past both aliasing
// thresholds.
func TestRadixSubTagsInjective(t *testing.T) {
	for _, P := range []int{2, 7, 40, 100, 257} {
		for _, r := range []int{2, 3, 6, 16, 17, 18, 31} {
			seen := map[int]string{}
			for it := newRadixWalk(P, 0, r, nil, nil); it.next(); {
				si := it.si
				for _, tg := range []int{tagRadixUniform + si, tagRadixMeta + si, tagRadixData + si} {
					at := fmt.Sprintf("sub %d (step %d, d %d)", si, it.st.step, it.st.d)
					if prev, ok := seen[tg]; ok {
						t.Errorf("P=%d r=%d: tag %d of %s already used by %s", P, r, tg, at, prev)
					}
					seen[tg] = at
				}
			}
		}
	}
}

// TestBuildScheduleMatchesIterator pins each frozen radix schedule to
// the live walk the immediate algorithms run: same step count,
// partners, block lists, and final-hop prefixes.
func TestBuildScheduleMatchesIterator(t *testing.T) {
	for _, P := range []int{1, 2, 9, 33, 64} {
		for _, rank := range []int{0, P / 2, P - 1} {
			for _, r := range []int{2, 3, 7, 17} {
				var live []schedStep
				for it := newRadixWalk(P, rank, r, nil, nil); it.next(); {
					if it.si != len(live) {
						t.Fatalf("P=%d r=%d: walk index %d at step %d", P, r, it.si, len(live))
					}
					st := it.st
					st.rel = append([]int(nil), st.rel...)
					st.slot = append([]int(nil), st.slot...)
					live = append(live, st)
				}
				sc := buildRadixSchedule(P, rank, r)
				if len(live) != len(sc.steps) {
					t.Errorf("P=%d r=%d rank=%d: walk ran %d steps, schedule froze %d", P, r, rank, len(live), len(sc.steps))
					continue
				}
				for si, sub := range live {
					got := sc.steps[si]
					if got.step != sub.step || got.d != sub.d || got.dst != sub.dst || got.src != sub.src ||
						got.final != sub.final || fmt.Sprint(got.rel) != fmt.Sprint(sub.rel) ||
						fmt.Sprint(got.slot) != fmt.Sprint(sub.slot) {
						t.Errorf("P=%d r=%d rank=%d step %d: schedule %+v != walk %+v", P, r, rank, si, got, sub)
					}
				}
			}
		}
	}
}

// TestRadixWalkAllocationFree pins the reason the radix walk is an
// iterator: given rel and slot scratch of maxDigitBlocks capacity,
// walking a whole schedule, both lists included, allocates nothing.
func TestRadixWalkAllocationFree(t *testing.T) {
	for _, r := range []int{2, 3, 8} {
		const P = 100
		rel, slot := walkScratch(P, r)
		steps, slots := 0, 0
		allocs := testing.AllocsPerRun(10, func() {
			for it := newRadixWalk(P, 7, r, rel, slot); it.next(); {
				steps++
				slots += len(it.st.slot)
			}
		})
		if allocs != 0 || steps == 0 || slots == 0 {
			t.Errorf("r=%d: walking %d steps (%d slots) allocated %v objects, want 0", r, steps, slots, allocs)
		}
	}
}

// TestRadixWalkSlots pins the walk's rotated slot list to its
// definition, slot[j] = (rel[j] + rank) mod P, for every rank of every
// P up to 70 at a spread of radices.
func TestRadixWalkSlots(t *testing.T) {
	for P := 1; P <= 70; P++ {
		for _, r := range []int{2, 3, 4, 7} {
			for rank := 0; rank < P; rank++ {
				for it := newRadixWalk(P, rank, r, nil, nil); it.next(); {
					sub := &it.st
					if len(sub.slot) != len(sub.rel) {
						t.Fatalf("P=%d r=%d rank=%d step %d: %d slots for %d blocks", P, r, rank, it.si, len(sub.slot), len(sub.rel))
					}
					for j, s := range sub.slot {
						if want := (sub.rel[j] + rank) % P; s != want {
							t.Fatalf("P=%d r=%d rank=%d step %d: slot[%d] = %d, want %d", P, r, rank, it.si, j, s, want)
						}
					}
				}
			}
		}
	}
}

// TestRotationIndexCounter pins the decrementing rotation-index counter
// to (2·rank − s) mod P.
func TestRotationIndexCounter(t *testing.T) {
	for P := 1; P <= 40; P++ {
		for rank := 0; rank < P; rank++ {
			for s, b := 0, rotatedStart(rank, P); s < P; s, b = s+1, rotatedNext(b, P) {
				if want := ((2*rank-s)%P + P) % P; b != want {
					t.Fatalf("P=%d rank=%d slot %d: index %d, want %d", P, rank, s, b, want)
				}
			}
		}
	}
}

// TestRadixConformanceGrid is the tag-aliasing regression at the
// behavioral level: odd, large, and past-the-threshold radices must be
// byte-exact against both the absolute pattern oracle and the
// spread-out implementation. r=17 and r=31 sat beyond the old
// packing's aliasing thresholds; P=40 gives them multiple digit
// positions.
func TestRadixConformanceGrid(t *testing.T) {
	for _, r := range []int{3, 5, 7, 16, 17, 31} {
		alg := TwoPhaseBruckRadix(r)
		for _, c := range []struct {
			P, maxN int
			seed    uint64
		}{{5, 9, 1}, {18, 13, 2}, {40, 11, 3}} {
			t.Run(fmt.Sprintf("r%d/P%d", r, c.P), func(t *testing.T) {
				runNonUniform(t, alg, c.P, c.maxN, c.seed, fmt.Sprintf("two-phase-r%d", r))
				runDifferential(t, alg, SpreadOut, c.P, c.maxN, c.seed, fmt.Sprintf("two-phase-r%d-vs-spreadout", r))
			})
		}
	}
}
