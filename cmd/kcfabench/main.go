// Command kcfabench reproduces the paper's Figure 12 and the Section
// 5.2 summary: a k-CFA fixpoint whose per-iteration all-to-all exchange
// is run with the vendor MPI_Alltoallv and with two-phase Bruck, plus
// the per-iteration communication time and maximum block size N that
// the figure plots.
package main

import (
	"flag"
	"fmt"
	"os"

	"bruckv/internal/kcfa"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
	"bruckv/internal/stats"
)

func main() {
	var (
		p        = flag.Int("p", 64, "process count")
		stages   = flag.Int("stages", 120, "program chain depth")
		fanout   = flag.Int("fanout", 4, "value-lambda fanout")
		k        = flag.Int("k", 2, "context sensitivity depth, 0-8 (the paper runs kCFA-8)")
		seed     = flag.Uint64("seed", 1, "program seed")
		mach     = flag.String("machine", "theta", "machine model")
		iterDump = flag.Bool("per-iteration", false, "print one line per fixpoint iteration (Figure 12 series)")
	)
	flag.Parse()

	model, ok := machine.Presets()[*mach]
	if !ok {
		fmt.Fprintf(os.Stderr, "kcfabench: unknown machine %q\n", *mach)
		os.Exit(1)
	}
	prog := kcfa.Generate(*stages, *fanout, *k, *seed)
	fmt.Printf("# fig12 — kCFA-%d at P=%d (%d lambdas, %d call sites)\n",
		*k, *p, len(prog.Lams), len(prog.Calls))

	results := map[string]kcfa.Result{}
	for _, alg := range []string{"vendor", "two-phase"} {
		w, err := mpi.NewWorld(*p, mpi.WithModel(model))
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcfabench: %v\n", err)
			os.Exit(1)
		}
		var res kcfa.Result
		err = w.Run(func(pr *mpi.Proc) error {
			r, err := kcfa.Run(pr, prog, alg)
			if pr.Rank() == 0 {
				res = r
			}
			return err
		})
		w.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcfabench: %v\n", err)
			os.Exit(1)
		}
		results[alg] = res
	}

	v, t := results["vendor"], results["two-phase"]
	fmt.Printf("\niterations: %d    facts: %d (states %d, store %d)\n",
		t.Iterations, t.Facts(), t.States, t.StoreEntries)
	fmt.Printf("%-12s  %-14s  %-14s\n", "", "vendor", "two-phase")
	fmt.Printf("%-12s  %-14s  %-14s\n", "total", ms(v.TotalNs), ms(t.TotalNs))
	fmt.Printf("%-12s  %-14s  %-14s\n", "all-to-all", ms(v.CommNs), ms(t.CommNs))
	fmt.Printf("comm speedup: %+.1f%%   total speedup: %.2fx\n",
		stats.Speedup(v.CommNs, t.CommNs), v.TotalNs/t.TotalNs)

	if *iterDump {
		fmt.Printf("\n%-6s  %-12s  %-12s  %-10s  %s\n", "iter", "vendor-comm", "2phase-comm", "N(bytes)", "new-facts")
		n := len(t.PerIter)
		if len(v.PerIter) < n {
			n = len(v.PerIter)
		}
		for i := 0; i < n; i++ {
			fmt.Printf("%-6d  %-12s  %-12s  %-10d  %d\n",
				i, ms(v.PerIter[i].CommNs), ms(t.PerIter[i].CommNs),
				t.PerIter[i].MaxBlockBytes, t.PerIter[i].NewFacts)
		}
	}
}

func ms(ns float64) string { return fmt.Sprintf("%.3fms", ns/1e6) }
