package coll

// Log-P step schedules.
//
// A schedule is one rank's communication plan for a log-P collective:
// an ordered step sequence, each step carrying its partner ranks and
// the block set it moves. A generator enumerates one rank's steps
// (partner derivation plus block lists) and the family interprets the
// blocks — relative slots for the Bruck alltoall variants, accumulated
// block prefixes for the allgatherv family, absolute reduction segments
// for recursive halving — and derives its tags from the running step
// index into its reserved tag band (see the band constants in coll.go).
// Each family algorithm walks its generator in one step loop
// (allgatherv.go, reducescatter.go, allreduce.go), which its persistent
// handle (families_persistent.go) calls with pinned buffers. Only the
// radix Alltoallv walk is ever frozen (buildRadixSchedule): a
// persistent Alltoallv handle replays it without the metadata exchange
// (persistent.go).

// schedStep is one step of a log-P schedule.
type schedStep struct {
	// step and d parameterize the generator's distance. For the radix
	// generator, step is the digit position's stride r^k and d the digit
	// value, so data travels d·r^k ranks; for the dissemination and
	// doubling generators, step is the round's distance (or XOR mask)
	// and d is unused.
	step, d int
	// dst and src are the partner ranks: data flows to dst and arrives
	// from src. Exchange-type steps (doubling, halving) have dst == src.
	dst, src int
	// rel lists the block ids moved this step, increasing. The family
	// defines the id space: relative slot indices in [1, P) for the
	// radix alltoallv, received relative block ids for dissemination
	// allgather, absolute rank ids for doubling allgather, segment ids
	// sent to the partner for recursive halving.
	rel []int
	// final counts the leading rel entries that are on their last hop
	// (multi-hop store-and-forward families only; 0 elsewhere).
	final int
}

// stepGen enumerates the steps of one rank's schedule, in order. The
// step passed to fn (including its rel slice) is reused between calls
// and valid only during the call, so the family algorithms' hot path
// performs no per-step allocation. The radix Alltoallv walk is the
// exception: it is the closure-free radixWalk iterator below, because
// the callback form made every variable its loop body captured escape
// to the heap.
type stepGen func(fn func(si int, st *schedStep))

// schedule is one rank's frozen radix-r Alltoallv plan.
type schedule struct {
	rank, r int
	steps   []schedStep
}

// buildRadixSchedule freezes the radix-r walk of one rank, deep-copying
// each step. It is pure local computation; the caller prices it.
func buildRadixSchedule(P, rank, r int) *schedule {
	sc := &schedule{rank: rank, r: r}
	for it := newRadixWalk(P, rank, r, nil); it.next(); {
		st := it.st
		st.rel = append([]int(nil), st.rel...)
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// radixWalk iterates the radix-r Bruck schedule of one rank: one step
// per (position, digit) pair, where the blocks whose k-th base-r digit
// equals d travel to the rank at distance d·r^k. st.rel holds relative
// slot indices; its first st.final entries (slots below step·r, whose
// k-th digit is their highest nonzero one) are on their last hop.
//
//	for it := newRadixWalk(P, rank, r, rel); it.next(); {
//		// it.si is the running step index, it.st the step
//	}
//
// The walk reuses st (and the rel scratch it was given) between steps.
type radixWalk struct {
	P, rank, r int
	k          int // digit position of st
	si         int // running index of st
	st         schedStep
}

// newRadixWalk starts a walk positioned before its first step. rel is
// scratch for the block lists; with capacity maxDigitBlocks(P, r) the
// walk never allocates.
func newRadixWalk(P, rank, r int, rel []int) radixWalk {
	return radixWalk{P: P, rank: rank, r: r, si: -1, st: schedStep{step: 1, rel: rel[:0]}}
}

// next advances to the following step, reporting false after the last.
func (it *radixWalk) next() bool {
	st := &it.st
	st.d++
	if st.d == it.r || st.d*st.step >= it.P { // next digit position
		it.k, st.step, st.d = it.k+1, st.step*it.r, 1
		if st.step >= it.P {
			return false
		}
	}
	it.si++
	st.rel = digitSlots(st.rel, it.P, it.r, it.k, st.d)
	st.dst = (it.rank - st.d*st.step%it.P + it.P) % it.P
	st.src = (it.rank + st.d*st.step) % it.P
	st.final = 0
	for st.final < len(st.rel) && st.rel[st.final] < st.step*it.r {
		st.final++
	}
	return true
}

// dissemGen returns the dissemination (Bruck allgather) generator for
// one rank: ceil(log2 P) steps at doubling distances. At the step with
// distance m, the rank sends its first min(m, P-m) accumulated blocks
// (a contiguous work-buffer prefix) to rank-m and receives the same
// count from rank+m; rel lists the received relative block ids
// [m, m+cnt), which extend the accumulated prefix contiguously. The
// relative block j of a rank holds the contribution of global rank
// (rank+j) mod P, so both sides derive every moved block's size from
// the globally known counts without a metadata exchange.
func dissemGen(P, rank int) stepGen {
	return func(fn func(si int, st *schedStep)) {
		st := schedStep{rel: make([]int, 0, (P+1)/2)}
		si := 0
		for m := 1; m < P; m <<= 1 {
			cnt := m
			if P-m < cnt {
				cnt = P - m
			}
			st.step = m
			st.dst = (rank - m + P) % P
			st.src = (rank + m) % P
			st.rel = st.rel[:0]
			for j := m; j < m+cnt; j++ {
				st.rel = append(st.rel, j)
			}
			fn(si, &st)
			si++
		}
	}
}

// pow2Below returns the largest power of two <= P (P >= 1).
func pow2Below(P int) int {
	p2 := 1
	for p2<<1 <= P {
		p2 <<= 1
	}
	return p2
}

// doublingOwned appends the absolute rank ids whose blocks a rank of
// the doubling core owns before the step with mask m: the 2^k ranks of
// its current group [base, base+m), plus the folded-in remainder blocks
// q+p2 for group members q < rem (see doublingGen).
func doublingOwned(dst []int, rank, m, p2, rem int) []int {
	dst = dst[:0]
	base := rank &^ (m - 1)
	for q := base; q < base+m; q++ {
		dst = append(dst, q)
	}
	for q := base; q < base+m && q < rem; q++ {
		dst = append(dst, q+p2)
	}
	return dst
}

// doublingGen returns the recursive-doubling allgather generator for a
// rank of the power-of-two core [0, p2): log2(p2) steps in which the
// rank exchanges its owned block set with partner rank XOR m. rel lists
// the absolute rank ids received — the partner's owned set before the
// step. Ranks beyond the core fold their block in before the doubling
// and receive the full result after it (handled by the family, not the
// schedule: those two transfers are not log-P structured).
func doublingGen(rank, p2, rem int) stepGen {
	return func(fn func(si int, st *schedStep)) {
		st := schedStep{rel: make([]int, 0, p2)}
		si := 0
		for m := 1; m < p2; m <<= 1 {
			partner := rank ^ m
			st.step = m
			st.dst, st.src = partner, partner
			st.rel = doublingOwned(st.rel, partner, m, p2, rem)
			fn(si, &st)
			si++
		}
	}
}

// halvingSegs appends the segment ids a group [lo, lo+g) of the
// power-of-two core is responsible for during recursive halving: the
// group members' own segments plus the folded-in remainder segments
// q+p2 for members q < rem. Both runs are contiguous and increasing.
func halvingSegs(dst []int, lo, g, p2, rem int) []int {
	dst = dst[:0]
	for q := lo; q < lo+g; q++ {
		dst = append(dst, q)
	}
	for q := lo; q < lo+g && q < rem; q++ {
		dst = append(dst, q+p2)
	}
	return dst
}

// halvingGen returns the recursive-halving reduce-scatter generator for
// a rank of the power-of-two core [0, p2): log2(p2) steps with
// exchange partner rank XOR (g/2) at halving group sizes g. rel lists
// the segment ids sent — the partner sub-group's responsibility set —
// and the receiver's kept set is halvingSegs of its own sub-group (a
// pure function both sides derive). Remainder ranks fold their full
// vector in before the core and receive their segment back after it
// (family-handled, like doublingGen's fold).
func halvingGen(rank, p2, rem int) stepGen {
	return func(fn func(si int, st *schedStep)) {
		st := schedStep{rel: make([]int, 0, p2)}
		si := 0
		for g := p2; g > 1; g >>= 1 {
			half := g / 2
			lo := rank &^ (g - 1)
			partner := rank ^ half
			// The partner's sub-group keeps the half this rank sends.
			theirLo := lo
			if rank&half == 0 {
				theirLo = lo + half
			}
			st.step = half
			st.dst, st.src = partner, partner
			st.rel = halvingSegs(st.rel, theirLo, half, p2, rem)
			fn(si, &st)
			si++
		}
	}
}
