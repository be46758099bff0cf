package nearclique_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"nearclique"
)

// generate draws a graph family through Generate, failing the test on an
// invalid spec.
func generate(t testing.TB, spec nearclique.GenSpec) nearclique.GenResult {
	t.Helper()
	res, err := nearclique.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// genPlanted draws a planted epsIn-near clique of the given size over a
// G(n, p) background. Every caller keeps n ≤ 4096, where Generate takes
// the dense generation path.
func genPlanted(t testing.TB, n, size int, epsIn, p float64, seed int64) nearclique.GenResult {
	t.Helper()
	return generate(t, nearclique.GenSpec{Family: "planted", N: n, Size: size, EpsIn: epsIn, P: p, Seed: seed})
}

// genER draws G(n, p) through Generate (dense path for n ≤ 4096).
func genER(t testing.TB, n int, p float64, seed int64) *nearclique.Graph {
	t.Helper()
	return generate(t, nearclique.GenSpec{Family: "er", N: n, P: p, Seed: seed}).Graph
}

// newSolver builds a Solver, failing the test on an invalid option.
func newSolver(t testing.TB, opts ...nearclique.Option) *nearclique.Solver {
	t.Helper()
	s, err := nearclique.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeFindOnPlantedGraph(t *testing.T) {
	inst := genPlanted(t, 200, 70, 0.01, 0.04, 3)
	res, err := newSolver(t,
		nearclique.WithEngine(nearclique.EngineSharded), nearclique.WithEpsilon(0.25),
		nearclique.WithExpectedSample(6), nearclique.WithSeed(5), nearclique.WithVersions(3),
	).Solve(context.Background(), inst.Graph)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no near-clique found with boosting on an easy instance")
	}
	if !nearclique.IsNearClique(inst.Graph, best.Members, 0.3) {
		t.Fatalf("best candidate density %v too low", best.Density)
	}
	if res.Metrics.Rounds == 0 || res.Metrics.MaxFrameBits == 0 {
		t.Fatal("metrics not populated")
	}
}

func TestFacadeSequentialMatchesDistributed(t *testing.T) {
	g := genER(t, 80, 0.15, 9)
	opts := []nearclique.Option{nearclique.WithEpsilon(0.3), nearclique.WithExpectedSample(5), nearclique.WithSeed(2)}
	a, err := newSolver(t, append(opts, nearclique.WithEngine(nearclique.EngineSharded))...).Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSolver(t, append(opts, nearclique.WithEngine(nearclique.EngineSequential))...).Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if a.Label(i) != b.Label(i) {
			t.Fatalf("label %d differs", i)
		}
	}
}

func TestFacadeGraphBuilding(t *testing.T) {
	b := nearclique.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("built graph N=%d M=%d", g.N(), g.M())
	}
	g2 := nearclique.Build(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if nearclique.Density(g2, []int{0, 1, 2}) != 1 {
		t.Fatal("triangle density should be 1")
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := genER(t, 30, 0.2, 4)
	var buf bytes.Buffer
	if err := nearclique.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := nearclique.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("round trip changed the graph")
	}
}

func TestFacadeBaselines(t *testing.T) {
	inst := generate(t, nearclique.GenSpec{Family: "clique", N: 60, Size: 20, P: 0.05, Seed: 6})
	sh, err := nearclique.Shingles(inst.Graph, nearclique.ShinglesOptions{
		Epsilon: 0.2, MinSize: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Labels) != 60 {
		t.Fatal("shingles labels wrong length")
	}
	nn, err := nearclique.NeighborsNeighbors(inst.Graph, nearclique.NNOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(nn.Cliques) == 0 {
		t.Fatal("NN found nothing on a planted clique")
	}
}

func TestFacadeErrors(t *testing.T) {
	g := genER(t, 20, 0.9, 8)
	sharded := []nearclique.Option{nearclique.WithEngine(nearclique.EngineSharded), nearclique.WithEpsilon(0.3), nearclique.WithSeed(1)}
	_, err := newSolver(t, append(sharded,
		nearclique.WithSamplingProbability(1), nearclique.WithMaxComponentSize(4))...).Solve(context.Background(), g)
	if !errors.Is(err, nearclique.ErrComponentTooLarge) {
		t.Fatalf("err = %v, want ErrComponentTooLarge", err)
	}
	_, err = newSolver(t, append(sharded,
		nearclique.WithExpectedSample(5), nearclique.WithMaxRounds(1))...).Solve(context.Background(), g)
	if !errors.Is(err, nearclique.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if g := generate(t, nearclique.GenSpec{Family: "web", N: 100, M: 2, Seed: 3}).Graph; g.N() != 100 {
		t.Fatal("PA generator broken")
	}
	if sf := generate(t, nearclique.GenSpec{Family: "shingles", N: 80, Delta: 0.5}); len(sf.Planted) == 0 {
		t.Fatal("shingles family has an empty clique")
	}
	if im := generate(t, nearclique.GenSpec{Family: "twocliques", N: 40, WithA: true}); len(im.Planted) == 0 {
		t.Fatal("impossibility construction has an empty clique")
	}
	geo := generate(t, nearclique.GenSpec{Family: "geometric", N: 50, Radius: 0.2, Seed: 1})
	g, pos := geo.Graph, geo.Positions
	if g.N() != 50 || len(pos) != 50 {
		t.Fatal("geometric generator broken")
	}
	g2, members := nearclique.EmbedCommunity(g, 10, 0.1, 2)
	if g2.N() != 50 || len(members) != 10 {
		t.Fatal("embed community broken")
	}
}

func TestFacadeGreedyPeel(t *testing.T) {
	inst := generate(t, nearclique.GenSpec{Family: "clique", N: 80, Size: 20, P: 0.02, Seed: 5})
	set, avg := nearclique.GreedyPeel(inst.Graph)
	if len(set) == 0 || avg <= 0 {
		t.Fatal("greedy peel returned nothing")
	}
}
