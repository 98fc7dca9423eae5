package coll

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"bruckv/internal/buffer"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

// Model-guided runtime algorithm selection ("AlgAuto").
//
// The paper's end product is a decision surface, not a single algorithm:
// Figure 9 and the α/β model (Eqs. 1-3) carve the (N, P) space into
// regions where padded Bruck, two-phase Bruck, or the spread-out
// baseline wins, and Section 7 argues the right collective must be
// chosen per call. Auto turns that surface into an Alltoallv: each call
// derives the global maximum block size and the global byte total from
// one fused allreduce, consults the machine model's refined estimates
// (the analytic prior), optionally overridden by a persisted empirical
// calibration table (the micro-probe sweep of bench.Calibrate), and
// dispatches to the winner's exchange core with the maximum already
// known — so selection costs no extra reduction rounds over the
// Allreduce every Bruck variant pays anyway.
//
// Selection is deterministic: it is a pure function of globally agreed
// reduction results, the model, and the table, so every rank picks the
// same algorithm and repeated runs pick identically. With tracing
// enabled the decision is visible on the timeline: the dispatched
// exchange runs inside a phase named by Selection.PhaseLabel (chosen
// algorithm, predicted cost, and decision source).

// PhaseAutoSelect is the phase covering Auto's fused reduction and
// decision.
const PhaseAutoSelect = "auto-select"

// AutoRadixes is the default radix axis of the candidate space: the
// two-phase radices Auto's selector prices against the non-radix
// candidates. Calibration sweeps may widen it (CandidatesFor, and
// bruckbench's -radices flag); a calibration table may install any
// measured two-phase-r<r> winner regardless of this default.
var AutoRadixes = []int{2, 4, 8}

// AutoCandidates are the names Auto chooses among, in the
// deterministic order ties are broken (earlier wins): the two-phase
// family over AutoRadixes, then the padded and linear baselines.
var AutoCandidates = CandidatesFor(nil)

// CandidatesFor returns the auto candidate names for an explicit radix
// axis (nil or empty: AutoRadixes). Radix 2 is canonicalized to
// "two-phase"; other radices name "two-phase-r<r>".
func CandidatesFor(radices []int) []string {
	if len(radices) == 0 {
		radices = AutoRadixes
	}
	out := make([]string, 0, len(radices)+2)
	for _, r := range radices {
		out = append(out, RadixName(r))
	}
	return append(out, "padded-bruck", "spreadout")
}

// RadixName returns the canonical algorithm name of radix-r two-phase
// Bruck: "two-phase" for r=2, "two-phase-r<r>" otherwise.
func RadixName(r int) string {
	if r == 2 {
		return "two-phase"
	}
	return fmt.Sprintf("two-phase-r%d", r)
}

// RadixOfName extracts the radix of a two-phase algorithm name:
// "two-phase" is radix 2 and "two-phase-r<r>" is radix r. Names
// outside the family — including malformed or sub-2 radices — return
// false.
func RadixOfName(name string) (int, bool) {
	if name == "two-phase" {
		return 2, true
	}
	const prefix = "two-phase-r"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	digits := name[len(prefix):]
	if digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false
	}
	r, err := strconv.Atoi(digits)
	if err != nil || r < 2 {
		return 0, false
	}
	return r, true
}

// PredictAlgNs returns the machine model's runtime estimate in
// nanoseconds for one Alltoallv of the named algorithm at P ranks,
// global maximum block size maxN, and mean block size avg. The second
// result is false for algorithms without an analytic model.
func PredictAlgNs(m machine.Model, name string, P, maxN int, avg float64) (float64, bool) {
	switch name {
	case "two-phase", "sloav":
		return m.EstimateTwoPhase(P, avg), true
	case "padded-bruck", "padded-alltoall":
		return m.EstimatePadded(P, maxN, avg), true
	case "spreadout", "vendor":
		return m.EstimateSpreadOut(P, avg), true
	}
	if r, ok := RadixOfName(name); ok {
		return m.EstimateTwoPhaseRadix(P, r, avg), true
	}
	return 0, false
}

// Candidate is one algorithm Auto considered, with its predicted cost.
type Candidate struct {
	Name        string
	PredictedNs float64
}

// Selection records one Auto decision.
type Selection struct {
	// Algorithm is the registry name of the dispatched algorithm.
	Algorithm string
	// PredictedNs is the model's estimate for the dispatched algorithm.
	PredictedNs float64
	// Candidates lists every considered algorithm with its prediction,
	// in AutoCandidates order.
	Candidates []Candidate
	// P, MaxBlock, and AvgBlock are the call's globally agreed shape.
	P        int
	MaxBlock int
	AvgBlock float64
	// Skew is AvgBlock/(MaxBlock/2): 1 for the paper's continuous
	// uniform workload, below 1 when most blocks are far smaller than
	// the maximum (heavy skew), up to 2 when every block is maximal.
	Skew float64
	// Source is "analytic" (model prior) or "tuned" (table override).
	Source string
}

// PhaseLabel names the phase the dispatched exchange runs inside, making
// the decision and its predicted cost visible in traces and phase
// roll-ups, e.g. "auto:two-phase pred=61234ns analytic".
func (s Selection) PhaseLabel() string {
	return fmt.Sprintf("auto:%s pred=%.0fns %s", s.Algorithm, s.PredictedNs, s.Source)
}

// Cell is one entry of an empirical selection table: at P ranks and
// maximum block size N, the measured-fastest algorithm.
type Cell struct {
	P         int     `json:"p"`
	N         int     `json:"n"`
	Algorithm string  `json:"algorithm"`
	BestNs    float64 `json:"best_ns,omitempty"`
}

// Table is a persisted empirical selection table — Figure 9 as data: the
// per-(P, N) winners of an offline micro-probe sweep (bench.Calibrate).
// A loaded table overrides the analytic prior for calls landing within a
// factor of two of a calibrated cell on both axes; everything else falls
// back to the model.
type Table struct {
	// Machine names the model the sweep ran under, informationally.
	Machine string `json:"machine,omitempty"`
	Cells   []Cell `json:"cells"`
}

// autoDispatchable reports whether name is an algorithm Auto can run:
// any radix of the two-phase family, or the padded/linear baselines.
func autoDispatchable(name string) bool {
	if _, ok := RadixOfName(name); ok {
		return true
	}
	return name == "padded-bruck" || name == "spreadout"
}

// Validate checks every cell names a dispatchable algorithm on a
// positive (P, N) grid point.
func (t *Table) Validate() error {
	if t == nil {
		return nil
	}
	for i, c := range t.Cells {
		if c.P < 1 || c.N < 1 {
			return fmt.Errorf("coll: tuning cell %d has non-positive grid point P=%d N=%d", i, c.P, c.N)
		}
		if !autoDispatchable(c.Algorithm) {
			return fmt.Errorf("coll: tuning cell %d names %q, not auto-dispatchable (two-phase[-r<r>], padded-bruck, spreadout)", i, c.Algorithm)
		}
	}
	return nil
}

// Lookup returns the table's algorithm for the nearest calibrated cell
// in log2 distance, if one lies within a factor of two on both the P and
// N axes; ties break toward the lowest-index cell, keeping lookups
// deterministic. Cells naming non-dispatchable algorithms are ignored.
func (t *Table) Lookup(P, maxN int) (string, bool) {
	if t == nil || P < 1 || maxN < 1 {
		return "", false
	}
	const maxAxisDist = 1.0 // one octave per axis
	lp := math.Log2(float64(P))
	ln := math.Log2(float64(maxN))
	best := -1
	bestD := math.Inf(1)
	for i, c := range t.Cells {
		if c.P < 1 || c.N < 1 || !autoDispatchable(c.Algorithm) {
			continue
		}
		dp := math.Abs(math.Log2(float64(c.P)) - lp)
		dn := math.Abs(math.Log2(float64(c.N)) - ln)
		if dp > maxAxisDist || dn > maxAxisDist {
			continue
		}
		if d := dp + dn; d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return "", false
	}
	return t.Cells[best].Algorithm, true
}

// Sort orders cells by (P, N), the canonical on-disk layout.
func (t *Table) Sort() {
	sort.Slice(t.Cells, func(i, j int) bool {
		if t.Cells[i].P != t.Cells[j].P {
			return t.Cells[i].P < t.Cells[j].P
		}
		return t.Cells[i].N < t.Cells[j].N
	})
}

// Encode writes the table as indented JSON.
func (t *Table) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// DecodeTable reads and validates a table written by Encode.
func DecodeTable(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("coll: decoding tuning table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Select picks the algorithm for one Alltoallv of the given globally
// agreed shape: the analytic prior is the candidate with the smallest
// model estimate (ties break in AutoCandidates order), overridden by the
// calibration table where it covers the call. Select is a pure function,
// so all ranks of a collective call agree.
func Select(m machine.Model, t *Table, P, maxN int, avg float64) Selection {
	sel := Selection{P: P, MaxBlock: maxN, AvgBlock: avg, Source: "analytic"}
	if maxN > 0 {
		sel.Skew = avg / (float64(maxN) / 2)
	}
	sel.Candidates = make([]Candidate, 0, len(AutoCandidates))
	for _, name := range AutoCandidates {
		ns, _ := PredictAlgNs(m, name, P, maxN, avg)
		sel.Candidates = append(sel.Candidates, Candidate{Name: name, PredictedNs: ns})
	}
	bestC := sel.Candidates[0]
	for _, c := range sel.Candidates[1:] {
		if c.PredictedNs < bestC.PredictedNs {
			bestC = c
		}
	}
	sel.Algorithm, sel.PredictedNs = bestC.Name, bestC.PredictedNs
	if name, ok := t.Lookup(P, maxN); ok {
		sel.Algorithm = name
		sel.Source = "tuned"
		for _, c := range sel.Candidates {
			if c.Name == name {
				sel.PredictedNs = c.PredictedNs
			}
		}
	}
	return sel
}

// Auto returns the auto-selecting Alltoallv. A nil table uses the pure
// analytic prior (the registry's "auto" entry); a non-nil table overlays
// the empirical calibration. The returned implementation is byte-exact
// with every candidate by construction — it dispatches to the same
// exchange cores — and selection happens inside the PhaseAutoSelect
// phase, with the dispatched exchange wrapped in a phase named by
// Selection.PhaseLabel.
func Auto(t *Table) Alltoallv {
	return func(p *mpi.Proc, send buffer.Buf, scounts, sdispls []int,
		recv buffer.Buf, rcounts, rdispls []int) error {
		if err := checkV(p, send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
			return err
		}
		P := p.Size()
		var local int64
		for _, c := range scounts {
			local += int64(c)
		}
		done := p.Phase(PhaseAutoSelect)
		maxN, total := p.AllreduceMaxIntSumInt64(maxInts(scounts), local)
		avg := float64(total) / float64(P) / float64(P)
		sel := Select(p.World().Model(), t, P, maxN, avg)
		done()
		if maxN == 0 {
			return nil // globally empty exchange
		}
		run := p.Phase(sel.PhaseLabel())
		defer run()
		switch sel.Algorithm {
		case "padded-bruck":
			return paddedWithMax(p, maxN, send, scounts, sdispls, recv, rcounts, rdispls, ZeroRotationBruck)
		case "spreadout":
			return spreadOutWindowed(p, send, scounts, sdispls, recv, rcounts, rdispls, 0)
		}
		if r, ok := RadixOfName(sel.Algorithm); ok {
			return twoPhaseExchange(p, r, maxN, send, scounts, sdispls, recv, rcounts, rdispls)
		}
		return fmt.Errorf("coll: auto selected unknown algorithm %q", sel.Algorithm)
	}
}
