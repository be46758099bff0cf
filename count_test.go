package nearclique

import (
	"context"
	"strings"
	"testing"
)

func countTestGraph() *Graph {
	// K6 on 0..5 plus a sparse tail.
	var edges [][2]int
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	edges = append(edges, [2]int{5, 6}, [2]int{6, 7}, [2]int{7, 8}, [2]int{8, 9})
	return Build(10, edges)
}

func TestParseEngineShadow(t *testing.T) {
	e, err := ParseEngine("shadow")
	if err != nil || e != EngineShadow {
		t.Fatalf("ParseEngine(shadow) = %v, %v", e, err)
	}
	if EngineShadow.String() != "shadow" {
		t.Fatalf("EngineShadow.String() = %q", EngineShadow.String())
	}
	if _, err := New(WithEngine(EngineShadow)); err != nil {
		t.Fatalf("WithEngine(EngineShadow) rejected: %v", err)
	}
}

func TestShadowEngineRefusesSolveAndSearch(t *testing.T) {
	s, err := New(WithEngine(EngineShadow))
	if err != nil {
		t.Fatal(err)
	}
	g := countTestGraph()
	if _, err := s.Solve(context.Background(), g); err == nil || !strings.Contains(err.Error(), "Count/Sample") {
		t.Fatalf("Solve on shadow engine: err = %v, want Count/Sample refusal", err)
	}
	if _, _, err := s.Search(context.Background(), g, 0.3); err == nil || !strings.Contains(err.Error(), "Count/Sample") {
		t.Fatalf("Search on shadow engine: err = %v, want Count/Sample refusal", err)
	}
}

func TestCountRefusesSimulatorEngines(t *testing.T) {
	s, err := New(WithEngine(EngineSharded))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Count(context.Background(), countTestGraph()); err == nil {
		t.Fatal("Count on sharded engine succeeded, want engine error")
	}
}

func TestCountOptionValidationEager(t *testing.T) {
	for _, opt := range []Option{
		WithCliqueSize(1), WithCliqueSize(MaxCliqueSize + 1),
		WithSamples(0), WithSamples(maxCountSamples + 1),
		WithConfidence(0), WithConfidence(1),
	} {
		if _, err := New(opt); err == nil {
			t.Error("invalid counting option accepted at construction")
		}
	}
}

func TestCountEndToEndDeterministic(t *testing.T) {
	g := countTestGraph()
	s, err := New(WithEngine(EngineShadow), WithCliqueSize(4), WithSamples(2048),
		WithConfidence(0.95), WithSeed(7), WithEpsilon(0.3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Count(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// K6 contributes C(6,4)=15 four-cliques; the tail none. The bound
	// must cover the truth.
	if diff := a.Cliques - 15; diff > a.CliquesErrBound || -diff > a.CliquesErrBound {
		t.Fatalf("clique estimate %v ± %v does not cover exact 15", a.Cliques, a.CliquesErrBound)
	}
	b, err := s.Count(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two identical Count calls disagree:\n%+v\n%+v", a, b)
	}

	// EngineAuto routes Count to the same estimator.
	auto, err := New(WithCliqueSize(4), WithSamples(2048), WithConfidence(0.95),
		WithSeed(7), WithEpsilon(0.3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := auto.Count(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *c {
		t.Fatalf("auto engine diverges from shadow:\n%+v\n%+v", a, c)
	}
}

func TestSampleEndToEnd(t *testing.T) {
	g := countTestGraph()
	s, err := New(WithEngine(EngineShadow), WithCliqueSize(3), WithSamples(256), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cliques, err := s.Sample(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) == 0 {
		t.Fatal("no triangles sampled from a graph containing K6")
	}
	for _, c := range cliques {
		if len(c) != 3 {
			t.Fatalf("sampled %v, want size 3", c)
		}
	}
}
