package frontier

import (
	"math/rand"
	"reflect"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// randomGraph builds an Erdős–Rényi graph through the sparse builder so
// tests control density precisely (gen's constructors are also used
// where a planted or extreme instance is wanted).
func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewSparseBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func randomSubset(n int, density float64, seed int64) *bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < density {
			s.Add(v)
		}
	}
	return s
}

func TestClusterBFSWordsMatchConnectivity(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		n := 30 + int(trial)*11
		// Vary density across trials so both clusterPush and clusterPull
		// waves occur.
		g := randomGraph(n, 0.01+float64(trial)*0.03, trial)
		sub := randomSubset(n, 0.6, trial+50)
		comps := g.ComponentsOf(sub)

		var seeds []int
		seedComp := map[int]int{} // seed index -> component index
		for ci, c := range comps {
			if len(seeds) == 64 {
				break
			}
			seedComp[len(seeds)] = ci
			seeds = append(seeds, c[len(c)/2])
		}
		if len(seeds) == 0 {
			continue
		}
		compOf := make([]int, n)
		for i := range compOf {
			compOf[i] = -1
		}
		for ci, c := range comps {
			for _, v := range c {
				compOf[v] = ci
			}
		}

		sc := NewScratch(n)
		ClusterBFS(g, sub, seeds, sc, nil)
		for v := 0; v < n; v++ {
			var want uint64
			if sub.Contains(v) {
				for si, ci := range seedComp {
					if compOf[v] == ci {
						want |= 1 << uint(si)
					}
				}
			}
			if got := sc.word(sub, v); got != want {
				t.Fatalf("trial %d: word(%d) = %b, want %b", trial, v, got, want)
			}
		}
	}
}

func TestComponentsMatchesGraphComponentsOf(t *testing.T) {
	cases := []*graph.Graph{
		randomGraph(50, 0.01, 1),   // many singletons: several 64-seed batches
		randomGraph(200, 0.005, 2), // > 64 components, multi-batch ordering
		randomGraph(120, 0.05, 3),
		gen.SparsePlantedNearClique(500, 80, 0.02, 6, 4).Graph,
		gen.Complete(70),
		gen.Empty(130),
	}
	sc := NewScratch(1)
	for i, g := range cases {
		g.CSR()
		for s := int64(0); s < 4; s++ {
			sub := randomSubset(g.N(), 0.2+0.25*float64(s), 31*int64(i)+s)
			want := g.ComponentsOf(sub)
			got := Components(g, sub, sc, nil)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d sub %d: Components diverges from graph.ComponentsOf:\ngot  %v\nwant %v",
					i, s, got, want)
			}
			// Reuse invariant: the scratch words must be all-zero again.
			for v, w := range sc.words {
				if w != 0 {
					t.Fatalf("case %d: words[%d] = %b left nonzero after Components", i, v, w)
				}
			}
		}
	}
}

func TestNeighborhoodsMatchesNeighbors(t *testing.T) {
	graphs := []*graph.Graph{
		randomGraph(80, 0.03, 7),
		gen.Complete(90), // pull path: any seed batch crosses the threshold
		gen.SparsePlantedNearClique(300, 60, 0.02, 8, 8).Graph,
	}
	rng := rand.New(rand.NewSource(9))
	for gi, g := range graphs {
		g.CSR()
		n := g.N()
		var seeds []int
		for i := 0; i < 70; i++ { // > 64: exercises batching
			seeds = append(seeds, rng.Intn(n))
		}
		seeds = append(seeds, seeds[0], seeds[3]) // duplicates share content
		rows := Neighborhoods(g, seeds)
		if len(rows) != len(seeds) {
			t.Fatalf("graph %d: %d rows for %d seeds", gi, len(rows), len(seeds))
		}
		for i, s := range seeds {
			want := g.Neighbors(s)
			if len(rows[i]) != len(want) {
				t.Fatalf("graph %d seed %d (v%d): %d neighbors, want %d",
					gi, i, s, len(rows[i]), len(want))
			}
			for j := range want {
				if rows[i][j] != want[j] {
					t.Fatalf("graph %d seed %d (v%d): entry %d = %d, want %d",
						gi, i, s, j, rows[i][j], want[j])
				}
			}
		}
	}
}

func TestFrontierEdgesCounts(t *testing.T) {
	g := randomGraph(60, 0.1, 5)
	s := randomSubset(60, 0.4, 6)
	edges, pop := FrontierEdges(g, s)
	var wantE int64
	wantP := 0
	s.ForEach(func(v int) {
		wantE += int64(g.Degree(v))
		wantP++
	})
	if edges != wantE || pop != wantP {
		t.Fatalf("FrontierEdges = (%d, %d), want (%d, %d)", edges, pop, wantE, wantP)
	}
}
