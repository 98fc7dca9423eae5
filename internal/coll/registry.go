package coll

import "sort"

// Registries mapping the names used by the benchmark harness and CLI
// tools to algorithm implementations.

// UniformAlgorithms returns the uniform all-to-all implementations by
// name, matching the six variants of the paper's Figure 2 plus the
// baselines.
func UniformAlgorithms() map[string]Alltoall {
	return map[string]Alltoall{
		"basic":             BasicBruck,
		"basic-dt":          BasicBruckDT,
		"modified":          ModifiedBruck,
		"modified-dt":       ModifiedBruckDT,
		"zerocopy-dt":       ZeroCopyBruckDT,
		"zerorotation":      ZeroRotationBruck,
		"pairwise":          PairwiseAlltoall,
		"spreadout-uniform": SpreadOutUniform,
		"vendor-alltoall":   VendorAlltoall,
		"zerorotation-r4":   ZeroRotationBruckRadix(4),
		"zerorotation-r8":   ZeroRotationBruckRadix(8),
	}
}

// NonUniformAlgorithms returns the MPI_Alltoallv-signature
// implementations by name.
func NonUniformAlgorithms() map[string]Alltoallv {
	return map[string]Alltoallv{
		"auto":            Auto(nil),
		"spreadout":       SpreadOut,
		"vendor":          VendorAlltoallv,
		"padded-bruck":    PaddedBruck,
		"padded-alltoall": PaddedAlltoall,
		"two-phase":       TwoPhaseBruck,
		"two-phase-r4":    TwoPhaseBruckRadix(4),
		"two-phase-r8":    TwoPhaseBruckRadix(8),
		"sloav":           SLOAV,
		"hierarchical":    HierarchicalAlltoallv,
	}
}

// nonUniformTable is the registry ResolveNonUniform reads, built once:
// its implementations hold no state, and the facade resolves on every
// call.
var nonUniformTable = NonUniformAlgorithms()

// ResolveNonUniform resolves an Alltoallv by name, accepting both the
// fixed registry names and parameterized radix names ("two-phase-r<r>"
// for any r >= 2) that have no registry entry.
func ResolveNonUniform(name string) (Alltoallv, bool) {
	if impl, ok := nonUniformTable[name]; ok {
		return impl, true
	}
	if r, ok := RadixOfName(name); ok {
		return TwoPhaseBruckRadix(r), true
	}
	return nil, false
}

// AllgathervAlgorithms returns the allgatherv implementations by name.
func AllgathervAlgorithms() map[string]Allgatherv {
	return map[string]Allgatherv{
		"auto":     AutoAllgatherv(),
		"bruck":    AllgathervBruck,
		"doubling": AllgathervDoubling,
		"linear":   AllgathervLinear,
	}
}

// ReduceScatterAlgorithms returns the reduce-scatter implementations
// by name.
func ReduceScatterAlgorithms() map[string]ReduceScatter {
	return map[string]ReduceScatter{
		"auto":    AutoReduceScatter(),
		"halving": ReduceScatterHalving,
		"direct":  ReduceScatterDirect,
	}
}

// AllreduceAlgorithms returns the vector allreduce implementations by
// name.
func AllreduceAlgorithms() map[string]AllreduceV {
	return map[string]AllreduceV{
		"auto":     AutoAllreduce(),
		"doubling": AllreduceDoubling,
		"rsag":     AllreduceRSAG,
	}
}

// Names returns the sorted keys of a registry-shaped map.
func Names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
