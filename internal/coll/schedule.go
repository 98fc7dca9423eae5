package coll

// The radix step schedule.
//
// Every Bruck-type algorithm walks one schedule: radixWalk, the radix-r
// step sequence of one rank, each step carrying its partner ranks and
// the relative slots it moves. The binary uniform variants and SLOAV
// (uniform.go, uniform_dt.go, sloav.go) walk it at r=2; zero-rotation
// (radix.go) and the two-phase exchange (twophase.go) at any radix.
// Only the persistent Alltoallv handle freezes it (buildRadixSchedule)
// and replays it without the metadata exchange (persistent.go). The
// dissemination, recursive-doubling and recursive-halving family
// algorithms (allgatherv.go, allreduce.go, reducescatter.go) need only
// a distance or an XOR mask per step, so each runs a plain for loop
// over those instead.

// schedStep is one step of the radix schedule.
type schedStep struct {
	// step is the digit position's stride r^k and d the digit value:
	// data travels d·r^k ranks.
	step, d int
	// dst and src are the partner ranks: data flows to dst and arrives
	// from src.
	dst, src int
	// rel lists the relative slot indices in [1, P) moved this step
	// (those whose k-th base-r digit equals d), increasing; slot lists
	// the same slots rotated to absolute ones, slot[j] = (rel[j] +
	// rank) mod P, which is where the step loops keep their blocks.
	rel, slot []int
	// final counts the leading rel entries that are on their last hop:
	// the slots below step·r, whose k-th digit is their highest nonzero
	// one.
	final int
}

// schedule is one rank's frozen radix-r Alltoallv plan.
type schedule struct {
	rank, r int
	steps   []schedStep
}

// buildRadixSchedule freezes the radix-r walk of one rank, deep-copying
// each step. It is pure local computation; the caller prices it.
func buildRadixSchedule(P, rank, r int) *schedule {
	sc := &schedule{rank: rank, r: r}
	for it := newRadixWalk(P, rank, r, nil, nil); it.next(); {
		st := it.st
		st.rel = append([]int(nil), st.rel...)
		st.slot = append([]int(nil), st.slot...)
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// radixWalk iterates the radix-r Bruck schedule of one rank: one step
// per (position, digit) pair, where the blocks whose k-th base-r digit
// equals d travel to the rank at distance d·r^k.
//
//	rel, slot := walkScratch(P, r)
//	for it := newRadixWalk(P, rank, r, rel, slot); it.next(); {
//		// it.si is the running step index, it.st the step
//	}
//
// The walk reuses st (and the rel and slot scratch it was given)
// between steps.
type radixWalk struct {
	P, rank, r int
	k          int // digit position of st
	si         int // running index of st
	st         schedStep
}

// newRadixWalk starts a walk positioned before its first step. rel and
// slot are scratch for the block lists; with capacity maxDigitBlocks(P,
// r) each the walk never allocates.
func newRadixWalk(P, rank, r int, rel, slot []int) radixWalk {
	return radixWalk{P: P, rank: rank, r: r, si: -1, st: schedStep{step: 1, rel: rel[:0], slot: slot[:0]}}
}

// walkScratch returns rel and slot scratch with which a radix-r walk
// over P ranks never allocates.
func walkScratch(P, r int) (rel, slot []int) {
	m := maxDigitBlocks(P, r)
	buf := make([]int, 2*m)
	return buf[:0:m], buf[m:m]
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
	st.slot = st.slot[:0]
	for _, i := range st.rel {
		s := i + it.rank // < 2P, so one subtraction rotates it
		if s >= it.P {
			s -= it.P
		}
		st.slot = append(st.slot, s)
	}
	st.dst = (it.rank - st.d*st.step%it.P + it.P) % it.P
	st.src = (it.rank + st.d*st.step) % it.P
	st.final = 0
	for st.final < len(st.rel) && st.rel[st.final] < st.step*it.r {
		st.final++
	}
	return true
}

// The doubling and halving families run their log-P loop on the
// power-of-two core [0, p2); the P - p2 remainder ranks fold in and out.

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
// q+p2 for group members q < rem (see AllgathervDoubling).
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
