// Benchmarks: one per experiment in the reproduction index (DESIGN.md §4),
// each running the corresponding experiment in its quick configuration,
// plus micro-benchmarks of the two execution paths. Regenerate the full
// tables with `go run ./cmd/experiments`.
package nearclique_test

import (
	"context"
	"testing"

	"nearclique"
	"nearclique/internal/expt"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exps, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := expt.Config{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := exps[0].Run(cfg)
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkE1_Theorem57(b *testing.B)              { benchExperiment(b, "E1") }
func BenchmarkE2_ConstantRounds(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3_SublinearClique(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4_ShinglesCounterexample(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5_MessageSize(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6_Boosting(b *testing.B)               { benchExperiment(b, "E6") }
func BenchmarkE7_RoundComplexity(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8_CandidateDensity(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9_Impossibility(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10_TolerantTesting(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11_Synchronizer(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkE12_ComplementMIS(b *testing.B)         { benchExperiment(b, "E12") }

// Micro-benchmarks of the two execution paths on one planted instance.

// benchSolve times Solve of one Solver on g.
func benchSolve(b *testing.B, g *nearclique.Graph, opts ...nearclique.Option) {
	b.Helper()
	s := newSolver(b, opts...)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindDistributed(b *testing.B) {
	benchSolve(b, genPlanted(b, 300, 100, 0.01, 0.03, 1).Graph,
		nearclique.WithEngine(nearclique.EngineSharded), nearclique.WithSeed(2))
}

// BenchmarkFindDistributedLarge runs the distributed protocol at n=20000
// on a sparse planted instance (expected background degree 20).
func BenchmarkFindDistributedLarge(b *testing.B) {
	const n = 20000
	benchSolve(b, genPlanted(b, n, 600, 0.01, 20.0/(n-1), 1).Graph,
		nearclique.WithEngine(nearclique.EngineSharded), nearclique.WithSeed(2))
}

func BenchmarkFindSequential(b *testing.B) {
	benchSolve(b, genPlanted(b, 300, 100, 0.01, 0.03, 1).Graph,
		nearclique.WithEngine(nearclique.EngineSequential), nearclique.WithSeed(2))
}

func BenchmarkFindSequentialLarge(b *testing.B) {
	benchSolve(b, genPlanted(b, 2000, 600, 0.01, 0.01, 1).Graph,
		nearclique.WithEngine(nearclique.EngineSequential), nearclique.WithExpectedSample(7), nearclique.WithSeed(2))
}

func BenchmarkShinglesBaseline(b *testing.B) {
	inst := generate(b, nearclique.GenSpec{Family: "clique", N: 300, Size: 100, P: 0.03, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nearclique.Shingles(inst.Graph, nearclique.ShinglesOptions{
			Epsilon: 0.25, MinSize: 2, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborsNeighborsBaseline(b *testing.B) {
	inst := generate(b, nearclique.GenSpec{Family: "clique", N: 150, Size: 50, P: 0.03, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nearclique.NeighborsNeighbors(inst.Graph, nearclique.NNOptions{
			Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
