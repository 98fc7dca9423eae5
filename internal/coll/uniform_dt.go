package coll

import (
	"math/bits"

	"bruckv/internal/buffer"
	"bruckv/internal/datatype"
	"bruckv/internal/mpi"
)

// Derived-datatype variants of the uniform Bruck algorithms. Instead of
// packing blocks into staging buffers with explicit copies, each step
// describes its non-contiguous blocks as a datatype and lets the
// transport pack them, paying the model's datatype handling cost — the
// trade the paper evaluates in Figure 2.

// BasicBruckDT is BasicBruck with datatype-described exchange steps.
func BasicBruckDT(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	if P == 1 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	rank := p.Rank()

	done := p.Phase(PhaseInitRotation)
	work := p.AllocBuf(P * n)
	defer p.FreeBuf(work)
	head := (P - rank) * n
	p.Memcpy(work.Slice(0, head), send.Slice(rank*n, head))
	if rank > 0 {
		p.Memcpy(work.Slice(head, rank*n), send.Slice(0, rank*n))
	}
	done()

	// As in BasicBruck, data flows the other way round the walk: send
	// to its src, receive from its dst.
	done = p.Phase(PhaseComm)
	rel, slot := walkScratch(P, 2)
	for it := newRadixWalk(P, rank, 2, rel, slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)
		st := datatype.Type{}
		for _, s := range sub.rel {
			st = st.Append(work.Slice(s*n, n))
		}
		tag := tagBruck + it.si
		datatype.SendRecv(p, sub.src, tag, st, sub.dst, tag, st)
	}
	p.ClearStep()
	done()

	done = p.Phase(PhaseFinalRotation)
	for j := 0; j < P; j++ {
		s := (rank - j + P) % P
		p.Memcpy(recv.Slice(j*n, n), work.Slice(s*n, n))
	}
	done()
	return nil
}

// ModifiedBruckDT is ModifiedBruck with datatype-described exchange
// steps.
func ModifiedBruckDT(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	if P == 1 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	rank := p.Rank()

	done := p.Phase(PhaseInitRotation)
	for i, src := 0, rotatedStart(rank, P); i < P; i, src = i+1, rotatedNext(src, P) {
		p.Memcpy(recv.Slice(i*n, n), send.Slice(src*n, n))
	}
	done()

	done = p.Phase(PhaseComm)
	rel, slot := walkScratch(P, 2)
	for it := newRadixWalk(P, rank, 2, rel, slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)
		st := datatype.Type{}
		for _, s := range sub.slot {
			st = st.Append(recv.Slice(s*n, n))
		}
		tag := tagBruck + it.si
		datatype.SendRecv(p, sub.dst, tag, st, sub.src, tag, st)
	}
	p.ClearStep()
	done()
	return nil
}

// ZeroCopyBruckDT avoids the per-step local copies of ModifiedBruck by
// alternating each slot between the receive buffer and a temporary
// buffer T, so a received block is sent from where it landed (Träff et
// al.'s zero-copy scheme, realized with struct datatypes spanning both
// buffers).
//
// For a slot whose relative index i has c set bits, the j-th transfer
// (at the j-th set bit of i, counting from the lowest) is received into
// the receive buffer when c-j is even and into T when it is odd, so the
// final transfer always lands in the receive buffer; the initial
// rotation therefore seeds slots with even popcount in the receive
// buffer and the rest in T. The paper states the equivalent parity rule
// in terms of the remaining set bits b = c-j+1.
//
// Because the slot-to-buffer mapping changes every step, the struct
// datatypes cannot be cached and their construction is charged each
// step — the overhead that makes this variant the slowest in Figure 2a.
func ZeroCopyBruckDT(p *mpi.Proc, send buffer.Buf, n int, recv buffer.Buf) error {
	if err := checkUniform(p, send, n, recv); err != nil {
		return err
	}
	P := p.Size()
	if P == 1 {
		p.Memcpy(recv.Slice(0, n), send.Slice(0, n))
		return nil
	}
	rank := p.Rank()
	tmp := p.AllocBuf(P * n)
	defer p.FreeBuf(tmp)

	// slotBuf returns the buffer holding slot s just before its j-th
	// transfer (j=0 means the initial placement).
	slotBuf := func(i, j int) buffer.Buf {
		c := bits.OnesCount(uint(i))
		if (c-j)%2 == 0 {
			return recv
		}
		return tmp
	}

	// Relative slot i is absolute slot s = (i + rank) mod P, which
	// starts out holding send block (2·rank − s) mod P: block rank at
	// i = 0, then one lower per slot.
	done := p.Phase(PhaseInitRotation)
	for i, s, src := 0, rank, rank; i < P; i, src = i+1, rotatedNext(src, P) {
		p.Memcpy(slotBuf(i, 0).Slice(s*n, n), send.Slice(src*n, n))
		if s++; s == P {
			s = 0
		}
	}
	done()

	done = p.Phase(PhaseComm)
	rel, slot := walkScratch(P, 2)
	for it := newRadixWalk(P, rank, 2, rel, slot); it.next(); {
		sub := &it.st
		p.SetStep(it.si)
		st := datatype.Type{}
		rt := datatype.Type{}
		for k, i := range sub.rel {
			s := sub.slot[k]
			j := bits.OnesCount(uint(i & (2*sub.step - 1))) // this is transfer number j for slot s
			st = st.Append(slotBuf(i, j-1).Slice(s*n, n))
			rt = rt.Append(slotBuf(i, j).Slice(s*n, n))
		}
		// Fresh struct datatypes every step: pay creation for both.
		datatype.ChargeCreate(p, st)
		datatype.ChargeCreate(p, rt)
		tag := tagBruck + it.si
		datatype.SendRecv(p, sub.dst, tag, st, sub.src, tag, rt)
	}
	p.ClearStep()
	done()
	return nil
}
