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

// Golden virtual-timing oracle for Alltoallv. Every registered
// algorithm, plus radix 3, the non-blocking path and persistent handles
// after their first, second and third Start, runs across machine preset
// × fault plan × communicator size × maximum block size on the
// event executor, and each cell's virtual outcome is compared bit for
// bit against testdata/virtual_alltoallv.golden: the run's MaxTimeNs
// bits, an FNV-1a hash of every rank's final clock bits, TotalBytes and
// TotalMessages. A refactor that claims to leave the LogGP cost
// untouched must leave this file byte-identical. The event executor is
// used because its scheduling is deterministic and its deadlock verdict
// exact, so a loaded machine cannot fail a healthy cell. Deliberate
// timing changes rewrite the file with:
//
//	go test -run TestVirtualAlltoallvGolden . -update

var updateVirtualGolden = flag.Bool("update", false, "rewrite testdata/virtual_alltoallv.golden")

const virtualGoldenPath = "testdata/virtual_alltoallv.golden"

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
	cases = append(cases, goldenCase{"uniform-zerorotation", func(c *Comm, l goldenLayout) error {
		buf := make([]byte, 2*c.Size()*l.n)
		return c.AlltoallWith(ZeroRotation, buf[:c.Size()*l.n], l.n, buf[c.Size()*l.n:])
	}})
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
				for _, gc := range goldenCases() {
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

func TestVirtualAlltoallvGolden(t *testing.T) {
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
