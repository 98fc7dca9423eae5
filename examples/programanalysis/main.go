// Program analysis: run the distributed k-CFA of the paper's Section
// 5.2 on a generated worst-case-style program, swapping the exchange
// algorithm between the vendor Alltoallv and two-phase Bruck, and show
// the per-iteration profile Figure 12 plots (communication time and
// maximum block size N).
package main

import (
	"fmt"
	"log"

	"bruckv/internal/kcfa"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
)

func main() {
	prog := kcfa.Generate(60, 3, 2, 99)
	fmt.Printf("program: %d lambdas, %d call sites, k=%d\n", len(prog.Lams), len(prog.Calls), prog.K)
	if s := prog.String(); len(s) > 120 {
		fmt.Printf("term: %s...\n\n", s[:120])
	} else {
		fmt.Printf("term: %s\n\n", s)
	}

	results := map[string]kcfa.Result{}
	for _, alg := range []string{"vendor", "two-phase"} {
		w, err := mpi.NewWorld(32, mpi.WithModel(machine.Theta()))
		if err != nil {
			log.Fatal(err)
		}
		var res kcfa.Result
		err = w.Run(func(p *mpi.Proc) error {
			r, err := kcfa.Run(p, prog, alg)
			if p.Rank() == 0 {
				res = r
			}
			return err
		})
		w.Close()
		if err != nil {
			log.Fatal(err)
		}
		results[alg] = res
		fmt.Printf("%-10s: total %.3fms, all-to-all %.3fms, %d iterations, %d facts\n",
			alg, res.TotalNs/1e6, res.CommNs/1e6, res.Iterations, res.Facts())
	}

	v, t := results["vendor"], results["two-phase"]
	fmt.Printf("\noverall speedup with two-phase Bruck: %.2fx (paper reports 1.15x for kCFA-8)\n",
		v.TotalNs/t.TotalNs)

	fmt.Println("\nfirst iterations (comm time and max block size N, cf. Figure 12):")
	fmt.Printf("%-6s  %-14s  %-14s  %-10s\n", "iter", "vendor-comm", "two-phase-comm", "N (bytes)")
	for i := 0; i < len(t.PerIter) && i < 12; i++ {
		fmt.Printf("%-6d  %12.4fms  %12.4fms  %-10d\n",
			i, v.PerIter[i].CommNs/1e6, t.PerIter[i].CommNs/1e6, t.PerIter[i].MaxBlockBytes)
	}
}
