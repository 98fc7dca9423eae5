package bruckv

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// Golden virtual-timing oracle. Every registered Alltoallv algorithm,
// plus radix 3, the non-blocking path and persistent handles after
// their first, second and third Start, and every registered Allgatherv,
// ReduceScatter and Allreduce algorithm, plus one non-blocking call and
// a persistent handle after two Starts per family, and the uniform
// zero-rotation Alltoall (with the five other binary Bruck variants in
// the clean N=200 cells), runs across machine
// preset × fault plan × communicator size × maximum block size on the
// event executor, and each cell's virtual outcome is compared bit for
// bit against testdata/virtual.golden: the run's MaxTimeNs
// bits, an FNV-1a hash of every rank's final clock bits, TotalBytes and
// TotalMessages. A refactor that claims to leave the LogGP cost
// untouched must leave this file byte-identical. The event executor is
// used because its scheduling is deterministic and its deadlock verdict
// exact, so a loaded machine cannot fail a healthy cell. Deliberate
// timing changes rewrite the file with:
//
//	go test -run TestVirtualGolden . -update

var updateVirtualGolden = flag.Bool("update", false, "rewrite testdata/virtual.golden")

const virtualGoldenPath = "testdata/virtual.golden"

// goldenCase is one entry point of the grid. run performs the
// collective on one rank with the cell's layout.
type goldenCase struct {
	name string
	run  func(c *Comm, l goldenLayout) error
}

// goldenLayout is one rank's deterministic non-uniform layout: block
// sizes in [0, n] that vary with source and destination, and a payload
// stamped with the source rank.
type goldenLayout struct {
	n                                  int
	send, recv                         []byte
	scounts, sdispls, rcounts, rdispls []int
}

func goldenBlock(src, dst, n int) int { return (src*7 + dst*3 + src*dst) % (n + 1) }

func makeGoldenLayout(rank, P, n int) goldenLayout {
	l := goldenLayout{n: n}
	l.scounts = make([]int, P)
	l.rcounts = make([]int, P)
	for d := 0; d < P; d++ {
		l.scounts[d] = goldenBlock(rank, d, n)
		l.rcounts[d] = goldenBlock(d, rank, n)
	}
	var sTotal, rTotal int
	l.sdispls, sTotal = Displacements(l.scounts)
	l.rdispls, rTotal = Displacements(l.rcounts)
	l.send = make([]byte, sTotal)
	for i := range l.send {
		l.send[i] = byte(rank)
	}
	l.recv = make([]byte, rTotal)
	return l
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	blocking := func(a Algorithm) goldenCase {
		return goldenCase{a.String(), func(c *Comm, l goldenLayout) error {
			return c.AlltoallvWith(a, l.send, l.scounts, l.sdispls, l.recv, l.rcounts, l.rdispls)
		}}
	}
	for _, a := range Algorithms() {
		cases = append(cases, blocking(a))
	}
	cases = append(cases, blocking(TwoPhaseRadix(3)))
	for _, a := range []Algorithm{TwoPhaseBruck, Auto} {
		a := a
		cases = append(cases, goldenCase{"nonblocking-" + a.String(), func(c *Comm, l goldenLayout) error {
			op, err := c.IAlltoallvWith(a, l.send, l.scounts, l.sdispls, l.recv, l.rcounts, l.rdispls)
			if err != nil {
				return err
			}
			c.ChargeComputeNs(2000)
			return op.Wait()
		}})
	}
	persistent := func(a Algorithm, starts int) goldenCase {
		return goldenCase{fmt.Sprintf("persistent-%s-start%d", a, starts), func(c *Comm, l goldenLayout) error {
			c.alg = a
			h, err := c.AlltoallvInit(l.scounts, l.sdispls, l.rcounts, l.rdispls)
			if err != nil {
				return err
			}
			defer h.Free()
			for i := 0; i < starts; i++ {
				if err := h.Start(l.send, l.recv); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	for starts := 1; starts <= 3; starts++ {
		cases = append(cases, persistent(TwoPhaseBruck, starts))
	}
	cases = append(cases, persistent(TwoPhaseRadix(3), 1), persistent(TwoPhaseRadix(3), 2))
	cases = append(cases, uniformCase(ZeroRotation))
	return cases
}

// uniformCase runs one uniform Alltoall variant with block size N.
func uniformCase(a UniformAlgorithm) goldenCase {
	return goldenCase{"uniform-" + a.String(), func(c *Comm, l goldenLayout) error {
		buf := make([]byte, 2*c.Size()*l.n)
		return c.AlltoallWith(a, buf[:c.Size()*l.n], l.n, buf[c.Size()*l.n:])
	}}
}

// uniformBruckCases are the binary Bruck variants beside zero-rotation.
// Their step loops never read the fault layer, so they run only in the
// clean N=200 cells, which keeps the oracle inside its time budget.
func uniformBruckCases() []goldenCase {
	var cases []goldenCase
	for _, a := range []UniformAlgorithm{BasicBruckAlg, ModifiedBruckAlg, BasicBruckDT, ModifiedBruckDT, ZeroCopyBruckDT} {
		cases = append(cases, uniformCase(a))
	}
	return cases
}

// familyCases are the Allgatherv, ReduceScatter and Allreduce entry
// points. Their layouts are globally known: rank i's block (its
// Allgatherv contribution and its ReduceScatter segment) is
// goldenBlock(i, i, n) bytes, and the Allreduce vector is n bytes.
// They skip the N=7 column to keep the oracle inside its time budget.
func familyCases() []goldenCase {
	counts := func(P, n int) ([]int, []int, int) {
		c := make([]int, P)
		for i := range c {
			c[i] = goldenBlock(i, i, n)
		}
		d, total := Displacements(c)
		return c, d, total
	}
	ag := func(c *Comm, l goldenLayout, run func(send []byte, scount int, recv []byte, rc, rd []int) error) error {
		rc, rd, total := counts(c.Size(), l.n)
		mine := rc[c.Rank()]
		send := make([]byte, mine)
		for i := range send {
			send[i] = byte(c.Rank())
		}
		return run(send, mine, make([]byte, total), rc, rd)
	}
	rs := func(c *Comm, l goldenLayout, run func(send []byte, counts []int, recv []byte) error) error {
		rc, _, total := counts(c.Size(), l.n)
		send := make([]byte, total)
		for i := range send {
			send[i] = byte(c.Rank() + i)
		}
		return run(send, rc, make([]byte, rc[c.Rank()]))
	}
	ar := func(c *Comm, l goldenLayout, run func(send, recv []byte) error) error {
		send := make([]byte, l.n)
		for i := range send {
			send[i] = byte(c.Rank() * (i + 1))
		}
		return run(send, make([]byte, l.n))
	}
	var cases []goldenCase
	for _, a := range AllgathervAlgorithmList() {
		cases = append(cases, goldenCase{"allgatherv-" + a.String(), func(c *Comm, l goldenLayout) error {
			return ag(c, l, func(send []byte, scount int, recv []byte, rc, rd []int) error {
				return c.AllgathervWith(a, send, scount, recv, rc, rd)
			})
		}})
	}
	for _, a := range ReduceScatterAlgorithmList() {
		cases = append(cases, goldenCase{"reducescatter-" + a.String(), func(c *Comm, l goldenLayout) error {
			return rs(c, l, func(send []byte, counts []int, recv []byte) error {
				return c.ReduceScatterWith(a, OpSum, send, counts, recv)
			})
		}})
	}
	for _, a := range AllreduceAlgorithmList() {
		cases = append(cases, goldenCase{"allreduce-" + a.String(), func(c *Comm, l goldenLayout) error {
			return ar(c, l, func(send, recv []byte) error {
				return c.AllreduceWith(a, OpSum, send, recv, l.n)
			})
		}})
	}
	// wait completes a non-blocking family call after overlapping it
	// with compute, as the Alltoallv non-blocking cells do.
	wait := func(c *Comm, op *Op, err error) error {
		if err != nil {
			return err
		}
		c.ChargeComputeNs(2000)
		return op.Wait()
	}
	cases = append(cases,
		goldenCase{"nonblocking-allgatherv-auto", func(c *Comm, l goldenLayout) error {
			return ag(c, l, func(send []byte, scount int, recv []byte, rc, rd []int) error {
				op, err := c.IAllgatherv(send, scount, recv, rc, rd)
				return wait(c, op, err)
			})
		}},
		goldenCase{"nonblocking-reducescatter-auto", func(c *Comm, l goldenLayout) error {
			return rs(c, l, func(send []byte, counts []int, recv []byte) error {
				op, err := c.IReduceScatter(OpSum, send, counts, recv)
				return wait(c, op, err)
			})
		}},
		goldenCase{"nonblocking-allreduce-auto", func(c *Comm, l goldenLayout) error {
			return ar(c, l, func(send, recv []byte) error {
				op, err := c.IAllreduce(OpSum, send, recv, l.n)
				return wait(c, op, err)
			})
		}},
	)
	// startTwice runs a persistent handle's Start twice, then frees it.
	type handle interface {
		Start(send, recv []byte) error
		Free()
	}
	startTwice := func(h handle, err error, send, recv []byte) error {
		if err != nil {
			return err
		}
		defer h.Free()
		for i := 0; i < 2; i++ {
			if err := h.Start(send, recv); err != nil {
				return err
			}
		}
		return nil
	}
	cases = append(cases,
		goldenCase{"persistent-allgatherv-start2", func(c *Comm, l goldenLayout) error {
			return ag(c, l, func(send []byte, _ int, recv []byte, rc, rd []int) error {
				h, err := c.AllgathervInit(rc, rd)
				return startTwice(h, err, send, recv)
			})
		}},
		goldenCase{"persistent-reducescatter-start2", func(c *Comm, l goldenLayout) error {
			return rs(c, l, func(send []byte, counts []int, recv []byte) error {
				h, err := c.ReduceScatterInit(OpSum, counts)
				return startTwice(h, err, send, recv)
			})
		}},
		goldenCase{"persistent-allreduce-start2", func(c *Comm, l goldenLayout) error {
			return ar(c, l, func(send, recv []byte) error {
				h, err := c.AllreduceInit(OpSum, l.n)
				return startTwice(h, err, send, recv)
			})
		}},
	)
	return cases
}

// goldenFaults are the fault axes: clean, a perturbed run (stragglers
// and jitter reorder arrivals), and a lossy run (the reliable transport
// retransmits). Straggler counts are clamped to the world size.
func goldenFaults(P int) []struct {
	name string
	plan *FaultPlan
} {
	stragglers := 2
	if stragglers > P {
		stragglers = P
	}
	return []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"chaos", &FaultPlan{Seed: 5, Stragglers: stragglers, Slowdown: 4, Jitter: 0.3}},
		{"loss", &FaultPlan{Seed: 11, Loss: 0.05}},
	}
}

// goldenCell runs one case as its own Run of w and formats its record.
func goldenCell(w *World, n int, gc goldenCase) (string, error) {
	P := w.Size()
	clocks := make([]float64, P)
	err := w.Run(func(c *Comm) error {
		if err := gc.run(c, makeGoldenLayout(c.Rank(), P, n)); err != nil {
			return err
		}
		clocks[c.Rank()] = c.NowNs()
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("%s P=%d n=%d: %w", gc.name, P, n, err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range clocks {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	st := w.Stats()
	return fmt.Sprintf("max=%016x clocks=%016x bytes=%d msgs=%d",
		math.Float64bits(st.MaxTimeNs), h.Sum64(), st.TotalBytes, st.TotalMessages), nil
}

// goldenSweep records every cell of one machine preset, in file order.
func goldenSweep(mp MachineParams) (string, error) {
	var out strings.Builder
	for _, P := range []int{1, 2, 5, 8, 24, 33} {
		for _, f := range goldenFaults(P) {
			opts := []Option{WithMachine(mp), WithExecutor(Events)}
			if f.plan != nil {
				opts = append(opts, WithFaults(*f.plan))
			}
			w, err := NewWorld(P, opts...)
			if err != nil {
				return "", err
			}
			for _, n := range []int{0, 7, 200} {
				cases := goldenCases()
				if n != 7 {
					cases = append(cases, familyCases()...)
				}
				if f.plan == nil && n == 200 {
					cases = append(cases, uniformBruckCases()...)
				}
				for _, gc := range cases {
					rec, err := goldenCell(w, n, gc)
					if err != nil {
						w.Close()
						return "", fmt.Errorf("%s/%s: %w", mp.Name, f.name, err)
					}
					fmt.Fprintf(&out, "%s/%s/P=%d/N=%d/%s %s\n", mp.Name, f.name, P, n, gc.name, rec)
				}
			}
			w.Close()
		}
	}
	return out.String(), nil
}

func TestVirtualGolden(t *testing.T) {
	// The presets are independent worlds, swept concurrently.
	presets := []MachineParams{Theta(), Stampede(), Cori()}
	parts := make([]string, len(presets))
	errs := make([]error, len(presets))
	var wg sync.WaitGroup
	for i, mp := range presets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = goldenSweep(mp)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := []byte(strings.Join(parts, ""))
	if *updateVirtualGolden {
		if err := os.WriteFile(virtualGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(virtualGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			if shown++; shown == 10 {
				t.Fatal("more differences follow; virtual timings moved")
			}
		}
	}
}
