package expt

import (
	"nearclique/internal/core"
	"nearclique/internal/gen"
)

// The engine-scaling workload grid is shared between experiment E13 and
// cmd/bench (which records BENCH_engine.json): both must measure the
// same configurations or the baseline and the experiment table would
// silently drift apart.

// ScaleEps is the detection parameter of the scaling workloads.
const ScaleEps = 0.25

// ScalePoint is one instance size of the engine-scaling grid.
type ScalePoint struct {
	N, Size int
	AvgDeg  float64
}

// ScalePoints returns the grid: quick stays CI-sized, the full grid ends
// at a million nodes.
func ScalePoints(quick bool) []ScalePoint {
	if quick {
		return []ScalePoint{
			{N: 5_000, Size: 300, AvgDeg: 10},
			{N: 20_000, Size: 500, AvgDeg: 10},
		}
	}
	return []ScalePoint{
		{N: 10_000, Size: 400, AvgDeg: 12},
		{N: 100_000, Size: 1000, AvgDeg: 12},
		{N: 1_000_000, Size: 2000, AvgDeg: 10},
	}
}

// ScaleInstance builds the point's sparse planted instance: an
// ε³-near-clique of Size nodes over an AvgDeg background.
func ScaleInstance(pt ScalePoint, seed int64) gen.Planted {
	return gen.SparsePlantedNearClique(pt.N, pt.Size, ScaleEps*ScaleEps*ScaleEps, pt.AvgDeg, seed)
}

// ScaleOptions returns the Find configuration for a point. The planted
// set is sublinear (δ = Size/N shrinks with N), so the expected sample
// scales as N/Size to hit it with ~4 nodes — the Corollary 2.3 regime
// rather than the constant-δ one.
func ScaleOptions(pt ScalePoint, seed int64) core.Options {
	return core.Options{
		Epsilon:        ScaleEps,
		ExpectedSample: 4 * float64(pt.N) / float64(pt.Size),
		Seed:           seed,
		MinSize:        pt.Size / 4,
	}
}

// RecoveredCount reports how many of the planted nodes appear in the
// reported member list.
func RecoveredCount(planted, members []int) int {
	in := make(map[int]bool, len(planted))
	for _, v := range planted {
		in[v] = true
	}
	hit := 0
	for _, v := range members {
		if in[v] {
			hit++
		}
	}
	return hit
}
