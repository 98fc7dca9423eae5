package main

// Oracles: every output the benchmark checks is compared against a
// computation made here, apart from the code under test — a naive
// single-threaded transpose or reduction of the generated blocks, a
// plain reachability count, and closed forms of the algorithms'
// message counts. None of them compares against a stored copy of an
// earlier run's output.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/bits"

	"bruckv/internal/dist"
	"bruckv/internal/graph"
	"bruckv/internal/service"
)

// splitmix is the benchmark's own seeded generator for everything it
// hands the program.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perm returns a uniformly random permutation of 0..n-1.
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], i
	}
	return p
}

func (r *splitmix) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		x := r.next()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(x)
			x >>= 8
		}
	}
}

// transpose is the naive all-to-all: rank d receives, in source order,
// the block every rank s addressed to it. send[s] holds rank s's
// blocks at sd[s][d] with length sc[s][d].
func transpose(send [][]byte, sc, sd [][]int) [][]byte {
	P := len(send)
	out := make([][]byte, P)
	for d := 0; d < P; d++ {
		var n int
		for s := 0; s < P; s++ {
			n += sc[s][d]
		}
		buf := make([]byte, 0, n)
		for s := 0; s < P; s++ {
			buf = append(buf, send[s][sd[s][d]:sd[s][d]+sc[s][d]]...)
		}
		out[d] = buf
	}
	return out
}

// closureCount counts the pairs (a, b) with a path of length >= 1 from
// a to b, by a breadth-first search from every vertex.
func closureCount(edges []graph.Edge) int64 {
	adj := map[int32][]int32{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	var total int64
	seen := map[int32]bool{}
	var queue []int32
	for src := range adj {
		clear(seen)
		queue = queue[:0]
		push := func(vs []int32) {
			for _, v := range vs {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		push(adj[src])
		for i := 0; i < len(queue); i++ {
			push(adj[queue[i]])
		}
		total += int64(len(seen))
	}
	return total
}

// log2Ceil is the number of Bruck steps for P ranks.
func log2Ceil(P int) int {
	if P <= 1 {
		return 0
	}
	return bits.Len(uint(P - 1))
}

// twoPhaseMessages is the closed-form message count of one blocking
// two-phase Bruck Alltoallv on P ranks: every rank sends one 8-byte
// message per round of the max-block dissemination allreduce, then one
// metadata and one data message per Bruck step — 3*ceil(log2 P) each.
func twoPhaseMessages(P int) int64 {
	return int64(P) * 3 * int64(log2Ceil(P))
}

// jobSpec mirrors the job schema's workload defaults: the distribution
// is uniform unless named, and a power law without a base uses 0.99.
func jobSpec(req service.JobRequest) (dist.Spec, error) {
	name := req.Dist
	if name == "" {
		name = "uniform"
	}
	kind, err := dist.ParseKind(name)
	if err != nil {
		return dist.Spec{}, err
	}
	s := dist.Spec{Kind: kind, N: req.MaxBlock, R: req.Window, Base: req.Base, Seed: req.Seed}
	if kind == dist.PowerLaw && s.Base == 0 {
		s.Base = 0.99
	}
	return s, s.Validate()
}

// jobBlock is the job schema's payload of the (src, dst) block: a
// splitmix64 byte stream keyed by (seed, src, dst), which client and
// server derive independently.
func jobBlock(seed uint64, src, dst, n int) []byte {
	b := make([]byte, n)
	x := seed ^ 0x9e3779b97f4a7c15*uint64(src+1) ^ 0xbf58476d1ce4e5b9*uint64(dst+1)
	var h uint64
	for i := range b {
		if i%8 == 0 {
			x += 0x9e3779b97f4a7c15
			h = x
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			h = (h ^ (h >> 27)) * 0x94d049bb133111eb
			h ^= h >> 31
		}
		b[i] = byte(h >> (8 * (i % 8)))
	}
	return b
}

// reduceBytes folds src into dst with a named bytewise operator.
func reduceBytes(op string, dst, src []byte) error {
	for i, v := range src {
		switch op {
		case "", "sum":
			dst[i] += v
		case "max":
			dst[i] = max(dst[i], v)
		case "min":
			dst[i] = min(dst[i], v)
		case "xor":
			dst[i] ^= v
		default:
			return fmt.Errorf("oracle: unknown reduce op %q", op)
		}
	}
	return nil
}

// oracleDigest computes the digest a correct server reports for req,
// by naive transpose or reduction of the generated blocks: per rank,
// the SHA-256 of what it receives, folded over the Repeat iterations,
// then folded over ranks in order.
func oracleDigest(req service.JobRequest) (string, error) {
	base, err := jobSpec(req)
	if err != nil {
		return "", err
	}
	k := req.Ranks
	folds := make([]hash.Hash, k)
	for r := range folds {
		folds[r] = sha256.New()
	}
	for it := 0; it < max(req.Repeat, 1); it++ {
		recv, err := oracleReceive(req, base.WithIteration(it))
		if err != nil {
			return "", err
		}
		for r, b := range recv {
			d := sha256.Sum256(b)
			folds[r].Write(d[:])
		}
	}
	job := sha256.New()
	for _, f := range folds {
		job.Write(f.Sum(nil))
	}
	return hex.EncodeToString(job.Sum(nil)), nil
}

// oracleReceive returns what every rank of the job receives for one
// iteration's workload spec.
func oracleReceive(req service.JobRequest, spec dist.Spec) ([][]byte, error) {
	k := req.Ranks
	recv := make([][]byte, k)
	segments := func() ([]int, []int, int) {
		counts := make([]int, k)
		displs := make([]int, k)
		total := 0
		for j := range counts {
			counts[j] = spec.BlockSize(j, 0, k)
			displs[j] = total
			total += counts[j]
		}
		return counts, displs, total
	}
	switch req.Op {
	case "alltoallv":
		for d := 0; d < k; d++ {
			for s := 0; s < k; s++ {
				recv[d] = append(recv[d], jobBlock(spec.Seed, s, d, spec.BlockSize(s, d, k))...)
			}
		}
	case "allgatherv":
		counts, _, _ := segments()
		var all []byte
		for s := 0; s < k; s++ {
			all = append(all, jobBlock(spec.Seed, s, 0, counts[s])...)
		}
		for d := range recv {
			recv[d] = all
		}
	case "reduce_scatter":
		counts, displs, total := segments()
		acc := jobBlock(spec.Seed, 0, 0, total)
		for s := 1; s < k; s++ {
			if err := reduceBytes(req.Reduce, acc, jobBlock(spec.Seed, s, 0, total)); err != nil {
				return nil, err
			}
		}
		for d := range recv {
			recv[d] = acc[displs[d] : displs[d]+counts[d]]
		}
	case "allreduce":
		acc := jobBlock(spec.Seed, 0, 0, spec.N)
		for s := 1; s < k; s++ {
			if err := reduceBytes(req.Reduce, acc, jobBlock(spec.Seed, s, 0, spec.N)); err != nil {
				return nil, err
			}
		}
		for d := range recv {
			recv[d] = acc
		}
	default:
		return nil, fmt.Errorf("oracle: unknown op %q", req.Op)
	}
	return recv, nil
}
