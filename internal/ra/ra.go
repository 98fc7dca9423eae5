// Package ra is a compact balanced-parallel-relational-algebra (BPRA)
// substrate in the spirit of the systems the paper's Section 5
// applications are built on (Kumar & Gilray's distributed relational
// algebra): relations are sets of fixed-width tuples hash-partitioned by
// a key column across ranks, and rule evaluation alternates local joins
// with a non-uniform all-to-all exchange that routes derived tuples to
// their owners. The exchange is pluggable — MPI_Alltoallv-style
// spread-out, the paper's two-phase Bruck, or any other registered
// algorithm — which is exactly the swap the paper performs in its
// graph-mining and program-analysis studies.
package ra

import (
	"encoding/binary"
	"fmt"

	"bruckv/internal/buffer"
	"bruckv/internal/coll"
	"bruckv/internal/mpi"
)

// Tuple is a fixed-arity row of eight int32 columns; applications use a
// prefix of them.
type Tuple [8]int32

// TupleBytes is the wire size of one tuple.
const TupleBytes = 32

// Hash returns a well-mixed hash of the tuple's column c.
func (t Tuple) Hash(c int) uint64 {
	x := uint64(uint32(t[c]))*0x9e3779b97f4a7c15 + 0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// Owner returns the rank owning the tuple under key column c.
func (t Tuple) Owner(c, P int) int { return int(t.Hash(c) % uint64(P)) }

// Relation is one rank's partition of a distributed relation, indexed by
// its key column.
type Relation struct {
	Name   string
	KeyCol int
	set    map[Tuple]struct{}
	index  map[int32][]Tuple
}

// NewRelation creates an empty partition keyed on column keyCol.
func NewRelation(name string, keyCol int) *Relation {
	return &Relation{Name: name, KeyCol: keyCol,
		set: map[Tuple]struct{}{}, index: map[int32][]Tuple{}}
}

// Insert adds t and reports whether it was new.
func (r *Relation) Insert(t Tuple) bool {
	if _, ok := r.set[t]; ok {
		return false
	}
	r.set[t] = struct{}{}
	k := t[r.KeyCol]
	r.index[k] = append(r.index[k], t)
	return true
}

// Has reports membership.
func (r *Relation) Has(t Tuple) bool {
	_, ok := r.set[t]
	return ok
}

// Len returns the partition's tuple count.
func (r *Relation) Len() int { return len(r.set) }

// Probe returns the tuples whose key column equals k. The returned slice
// must not be modified.
func (r *Relation) Probe(k int32) []Tuple { return r.index[k] }

// Each calls fn for every tuple in the partition (iteration order is
// unspecified).
func (r *Relation) Each(fn func(Tuple)) {
	for t := range r.set {
		fn(t)
	}
}

// Exchanger routes tuples to their owning ranks with a configurable
// all-to-all algorithm, tracking per-call communication statistics.
type Exchanger struct {
	p   *mpi.Proc
	alg coll.Alltoallv

	// CommNs accumulates the virtual time this rank spent inside
	// exchanges (counts exchange + data exchange), like the paper's
	// "all-to-all time".
	CommNs float64
	// Calls counts exchanges performed.
	Calls int
	// LastMaxBlock is the global maximum block size (bytes) of the most
	// recent exchange — the N that Figure 12 plots per iteration.
	LastMaxBlock int

	// sc, sd, rc, rd are the exchange's send and receive counts and
	// displacements, reused across calls.
	sc, sd, rc, rd []int
}

// NewExchanger builds an exchanger for rank p using the given algorithm
// (by registry name, e.g. "vendor" or "two-phase").
func NewExchanger(p *mpi.Proc, algorithm string) (*Exchanger, error) {
	alg, ok := coll.NonUniformAlgorithms()[algorithm]
	if !ok {
		return nil, fmt.Errorf("ra: unknown alltoallv algorithm %q", algorithm)
	}
	return &Exchanger{p: p, alg: alg}, nil
}

// Exchange routes out[d] to rank d for every destination and returns the
// tuples received by this rank. It is a collective: every rank must call
// it the same number of times.
func (e *Exchanger) Exchange(out [][]Tuple) ([]Tuple, error) {
	P := e.p.Size()
	if len(out) != P {
		return nil, fmt.Errorf("ra: Exchange needs %d destination lists, got %d", P, len(out))
	}
	t0 := e.p.Now()
	if len(e.sc) != P {
		ints := make([]int, 4*P)
		e.sc, e.sd, e.rc, e.rd = ints[:P], ints[P:2*P], ints[2*P:3*P], ints[3*P:]
	}
	sc, sd, rc, rd := e.sc, e.sd, e.rc, e.rd
	for d, ts := range out {
		sc[d] = len(ts) * TupleBytes
	}
	if err := coll.CountsExchange(e.p, sc, rc); err != nil {
		return nil, err
	}
	sTotal, rTotal := 0, 0
	for i := range sc {
		sd[i], rd[i] = sTotal, rTotal
		sTotal += sc[i]
		rTotal += rc[i]
	}

	// Tuples travel as eight little-endian uint32 columns each.
	sb := make([]byte, sTotal)
	for d, ts := range out {
		b := sb[sd[d]:]
		for _, t := range ts {
			for c, v := range t {
				binary.LittleEndian.PutUint32(b[4*c:], uint32(v))
			}
			b = b[TupleBytes:]
		}
	}
	rb := make([]byte, rTotal)
	if err := e.alg(e.p, buffer.FromBytes(sb), sc, sd, buffer.FromBytes(rb), rc, rd); err != nil {
		return nil, err
	}
	in := make([]Tuple, rTotal/TupleBytes)
	for i := range in {
		b := rb[i*TupleBytes:]
		for c := range in[i] {
			in[i][c] = int32(binary.LittleEndian.Uint32(b[4*c:]))
		}
	}
	maxBlock := 0
	for _, c := range sc {
		if c > maxBlock {
			maxBlock = c
		}
	}
	e.LastMaxBlock = e.p.AllreduceMaxInt(maxBlock)
	e.CommNs += e.p.Now() - t0
	e.Calls++
	return in, nil
}

// Route appends t to out[owner] for the owner of t under key column c.
func Route(out [][]Tuple, t Tuple, c, P int) {
	d := t.Owner(c, P)
	out[d] = append(out[d], t)
}

// ClearRouted resets the destination lists between iterations without
// reallocating.
func ClearRouted(out [][]Tuple) {
	for i := range out {
		out[i] = out[i][:0]
	}
}
