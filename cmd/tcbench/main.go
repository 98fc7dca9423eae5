// Command tcbench reproduces the paper's Figure 11: strong scaling of
// distributed transitive closure over two graph regimes, comparing the
// vendor MPI_Alltoallv against two-phase Bruck for the per-iteration
// tuple exchanges.
//
// Graph 1 of the paper (412k edges, 2,933 iterations, light
// per-iteration load) is modeled by the LongChain generator; Graph 2
// (1.0M edges, 89 iterations, ~10x per-iteration load) by DenseBlocks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bruckv/internal/graph"
	"bruckv/internal/machine"
	"bruckv/internal/mpi"
	"bruckv/internal/stats"
)

func main() {
	var (
		psFlag = flag.String("ps", "16,32,64,128", "comma-separated process counts")
		chainN = flag.Int("chain-nodes", 400, "LongChain backbone length (graph 1)")
		chainE = flag.Int("chain-extra", 800, "LongChain shortcut edges (graph 1)")
		denseN = flag.Int("dense-nodes", 900, "DenseBlocks vertices (graph 2)")
		denseD = flag.Int("dense-degree", 5, "DenseBlocks out-degree (graph 2)")
		seed   = flag.Uint64("seed", 1, "graph seed")
		mach   = flag.String("machine", "theta", "machine model")
	)
	flag.Parse()

	model, ok := machine.Presets()[*mach]
	if !ok {
		fmt.Fprintf(os.Stderr, "tcbench: unknown machine %q\n", *mach)
		os.Exit(1)
	}
	var ps []int
	for _, s := range strings.Split(*psFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: bad process count %q\n", s)
			os.Exit(1)
		}
		ps = append(ps, v)
	}

	graphs := []struct {
		name  string
		edges []graph.Edge
	}{
		{"graph1-longchain", graph.LongChain(*chainN, *chainE, *seed)},
		{"graph2-denseblocks", graph.DenseBlocks(*denseN, *denseD, *seed)},
	}

	fmt.Println("# fig11 — Transitive closure strong scaling (total / comm virtual time)")
	for _, g := range graphs {
		fmt.Printf("\n## %s (%d edges)\n", g.name, len(g.edges))
		fmt.Printf("%-8s  %-12s  %-12s  %-12s  %-12s  %-10s  %-12s  %s\n",
			"P", "vendor", "vendor-comm", "two-phase", "2phase-comm", "speedup", "iterations", "paths")
		for _, P := range ps {
			var vend, twop graph.TCResult
			for _, alg := range []string{"vendor", "two-phase"} {
				w, err := mpi.NewWorld(P, mpi.WithModel(model))
				if err != nil {
					fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
					os.Exit(1)
				}
				var res graph.TCResult
				err = w.Run(func(p *mpi.Proc) error {
					r, err := graph.TransitiveClosure(p, g.edges, alg)
					if p.Rank() == 0 {
						res = r
					}
					return err
				})
				w.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
					os.Exit(1)
				}
				if alg == "vendor" {
					vend = res
				} else {
					twop = res
				}
			}
			fmt.Printf("%-8d  %-12s  %-12s  %-12s  %-12s  %+8.1f%%  %-12d  %d\n",
				P, ms(vend.TotalNs), ms(vend.CommNs), ms(twop.TotalNs), ms(twop.CommNs),
				stats.Speedup(vend.TotalNs, twop.TotalNs), twop.Iterations, twop.TotalPaths)
		}
	}
}

func ms(ns float64) string { return fmt.Sprintf("%.2fms", ns/1e6) }
