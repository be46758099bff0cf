package core

import (
	"context"
	"errors"
	"testing"

	"nearclique/internal/gen"
)

func TestSearchMinEpsilonOnPlantedClique(t *testing.T) {
	// A strict planted clique should be detectable at small ε.
	p := gen.PlantedClique(300, 110, 0.02, 5)
	eps, res, err := SearchCachedContext(context.Background(), p.Graph, SearchOptions{
		Rho: 0.25, Seed: 3, ExpectedSample: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eps > 0.2 {
		t.Fatalf("strict clique should be found at small ε, got %v", eps)
	}
	if best := res.Best(); best == nil || len(best.Members) < 75 {
		t.Fatalf("search result too small: %+v", res.Best())
	}
}

func TestSearchMinEpsilonOrdersInstances(t *testing.T) {
	// A looser planted near-clique should need a larger ε than a tight one.
	tight := gen.PlantedNearClique(300, 110, 0.005, 0.02, 7)
	loose := gen.PlantedNearClique(300, 110, 0.12, 0.02, 7)
	so := SearchOptions{Rho: 0.25, Seed: 9, ExpectedSample: 7}
	epsTight, _, err := SearchCachedContext(context.Background(), tight.Graph, so)
	if err != nil {
		t.Fatal(err)
	}
	epsLoose, _, err := SearchCachedContext(context.Background(), loose.Graph, so)
	if err != nil {
		t.Fatal(err)
	}
	if epsTight > epsLoose {
		t.Fatalf("ε(tight)=%v > ε(loose)=%v; search not ordering instances", epsTight, epsLoose)
	}
}

func TestSearchMinEpsilonNotFound(t *testing.T) {
	// A sparse random graph has no near-clique of 40% of the nodes.
	g := gen.ErdosRenyi(200, 0.03, 2)
	_, _, err := SearchCachedContext(context.Background(), g, SearchOptions{Rho: 0.4, Seed: 1})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSearchMinEpsilonValidation(t *testing.T) {
	g := gen.Complete(10)
	if _, _, err := SearchCachedContext(context.Background(), g, SearchOptions{Rho: 0}); err == nil {
		t.Fatal("Rho=0 accepted")
	}
	if _, _, err := SearchCachedContext(context.Background(), g, SearchOptions{Rho: 0.5, EpsMin: 0.4, EpsMax: 0.3}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestSearchMinEpsilonCompleteGraph(t *testing.T) {
	g := gen.Complete(60)
	eps, res, err := SearchCachedContext(context.Background(), g, SearchOptions{Rho: 0.9, Seed: 4, ExpectedSample: 5})
	if err != nil {
		t.Fatal(err)
	}
	if eps > 0.1 {
		t.Fatalf("K60 should need tiny ε, got %v", eps)
	}
	if best := res.Best(); best == nil || best.Density < 0.99 {
		t.Fatalf("K60 search result: %+v", res.Best())
	}
}

// TestSearchNeedIsCeil pins the required set size to ⌈Rho·n⌉ (floor 1),
// with IsNearClique's 1e-9 slack absorbing a product that lands a hair
// above an integer.
func TestSearchNeedIsCeil(t *testing.T) {
	for _, tc := range []struct {
		rho  float64
		n    int
		want int
	}{
		{0.25, 10, 3},
		{0.1, 30, 3}, // 0.1·30 = 3.0000000000000004
		{250.0 / 1e5, 1e5, 250},
		{0.5, 10, 5},
		{0.001, 10, 1},
	} {
		if _, need, err := (SearchOptions{Rho: tc.rho}).normalized(tc.n); err != nil || need != tc.want {
			t.Errorf("Rho %v, n %d: need %d (err %v), want %d", tc.rho, tc.n, need, err, tc.want)
		}
	}
}
