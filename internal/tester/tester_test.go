package tester

import (
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/gen"
)

func TestOracleCountsDistinctQueries(t *testing.T) {
	g := gen.Complete(5)
	o := NewOracle(g)
	o.Adjacent(0, 1)
	o.Adjacent(1, 0) // same pair
	o.Adjacent(0, 2)
	if o.Queries() != 2 {
		t.Fatalf("queries=%d, want 2", o.Queries())
	}
	if !o.Adjacent(0, 1) {
		t.Fatal("adjacency wrong")
	}
}

func TestAcceptsPlantedClique(t *testing.T) {
	// A 40% planted clique should be accepted for ρ=0.3 on most seeds.
	p := gen.PlantedClique(300, 120, 0.05, 7)
	accepts := 0
	for seed := int64(0); seed < 10; seed++ {
		o := NewOracle(p.Graph)
		v := TestRhoClique(o, Options{Rho: 0.3, Epsilon: 0.25, Seed: seed})
		if v.Accept {
			accepts++
		}
	}
	if accepts < 6 {
		t.Fatalf("accepted only %d/10 runs on a graph with a large clique", accepts)
	}
}

func TestRejectsSparseGraph(t *testing.T) {
	// G(n, 0.05) has no large near-clique: reject on most seeds.
	g := gen.ErdosRenyi(300, 0.05, 3)
	rejects := 0
	for seed := int64(0); seed < 10; seed++ {
		o := NewOracle(g)
		v := TestRhoClique(o, Options{Rho: 0.3, Epsilon: 0.25, Seed: seed})
		if !v.Accept {
			rejects++
		}
	}
	if rejects < 8 {
		t.Fatalf("rejected only %d/10 runs on a sparse graph", rejects)
	}
}

func TestQueriesIndependentOfN(t *testing.T) {
	// Dense-model testers use Õ(poly(1/ε)) queries, independent of n.
	// Fix the sample sizes so neither graph clamps them.
	opts := Options{Rho: 0.3, Epsilon: 0.25, Seed: 5, SampleU: 10, SampleW: 200}
	small := NewOracle(gen.ErdosRenyi(500, 0.05, 1))
	TestRhoClique(small, opts)
	large := NewOracle(gen.ErdosRenyi(3000, 0.01, 2))
	TestRhoClique(large, opts)
	// Distinct-pair collisions make the counts differ slightly; they must
	// not scale with n.
	if diff := large.Queries() - small.Queries(); diff > small.Queries()/5 || -diff > small.Queries()/5 {
		t.Fatalf("query counts scale with n: %d vs %d", small.Queries(), large.Queries())
	}
}

func TestWitnessIsClique(t *testing.T) {
	p := gen.PlantedClique(200, 100, 0.05, 9)
	for seed := int64(0); seed < 5; seed++ {
		o := NewOracle(p.Graph)
		v := TestRhoClique(o, Options{Rho: 0.4, Epsilon: 0.2, Seed: seed})
		if !v.Accept {
			continue
		}
		set := bitset.FromIndices(p.Graph.N(), v.Witness)
		if !p.Graph.IsClique(set) {
			t.Fatalf("seed %d: witness %v is not a clique", seed, v.Witness)
		}
	}
}

func TestApproximateFindRecoversNearClique(t *testing.T) {
	p := gen.PlantedClique(250, 100, 0.03, 11)
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		o := NewOracle(p.Graph)
		v := TestRhoClique(o, Options{Rho: 0.35, Epsilon: 0.2, Seed: seed})
		if !v.Accept {
			continue
		}
		set := ApproximateFind(o, v.Witness, 0.2)
		if len(set) >= 80 && p.Graph.DensityOf(set) >= 0.75 {
			found = true
		}
	}
	if !found {
		t.Fatal("approximate find never recovered a large near-clique")
	}
}

func TestApproximateFindEmptyWitness(t *testing.T) {
	o := NewOracle(gen.Complete(5))
	if out := ApproximateFind(o, nil, 0.2); out != nil {
		t.Fatalf("empty witness returned %v", out)
	}
}

func TestEmptyGraph(t *testing.T) {
	o := NewOracle(gen.Empty(0))
	v := TestRhoClique(o, Options{Rho: 0.3, Epsilon: 0.2, Seed: 1})
	if v.Accept {
		t.Fatal("accepted ρ-clique on an empty graph")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := gen.PlantedClique(150, 60, 0.05, 13).Graph
	a := TestRhoClique(NewOracle(g), Options{Rho: 0.3, Epsilon: 0.25, Seed: 4})
	b := TestRhoClique(NewOracle(g), Options{Rho: 0.3, Epsilon: 0.25, Seed: 4})
	if a.Accept != b.Accept || a.Queries != b.Queries {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSampleCaps(t *testing.T) {
	// Tiny graphs: samples are clamped to n and nothing panics.
	g := gen.Complete(3)
	o := NewOracle(g)
	v := TestRhoClique(o, Options{Rho: 0.5, Epsilon: 0.3, Seed: 1})
	if !v.Accept {
		t.Fatal("K3 should be accepted as having a 50% clique")
	}
}
