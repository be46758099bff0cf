package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/flight"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// sampleComponents returns eachComponent's components of G[in], copied,
// through s sized for g.
func sampleComponents(s *seqScratch, g *graph.Graph, in *bitset.Set, ft *flightTrace) [][]int {
	s.sizeFor(g.N(), 1)
	s.inS = in
	var out [][]int
	if err := s.eachComponent(g, ft, func(members []int) error {
		out = append(out, slices.Clone(members))
		return nil
	}); err != nil {
		panic(err)
	}
	return out
}

// randomGraph builds an Erdős–Rényi graph through the sparse builder so
// tests control density precisely.
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

// randomSample returns a sample of n nodes, each in it with probability
// density.
func randomSample(n int, density float64, seed int64) *bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < density {
			s.Add(v)
		}
	}
	return s
}

// TestComponentsMatchesGraphComponentsOf pins the replay's component
// search to graph.ComponentsOf — the same components, each sorted, in
// order of smallest member — over samples from one node to every node,
// on random graphs, a 22-node clique and a 40-node path (a search 39
// depths deep), through one scratch whose seen set must be all-zero
// after every walk, also one that visit stops early.
func TestComponentsMatchesGraphComponentsOf(t *testing.T) {
	cases := []*graph.Graph{
		randomGraph(50, 0.01, 1), // mostly singletons
		randomGraph(200, 0.005, 2),
		randomGraph(120, 0.05, 3),
		gen.SparsePlantedNearClique(500, 80, 0.02, 6, 4).Graph,
		gen.Complete(HardMaxComponentSize),
		gen.Path(40),
		gen.Empty(130),
	}
	s := new(seqScratch)
	for i, g := range cases {
		n := g.N()
		one := bitset.New(n)
		one.Add(n / 2)
		samples := []*bitset.Set{one, randomSample(n, 1, 0)}
		for k := int64(0); k < 4; k++ {
			samples = append(samples, randomSample(n, 0.05+0.3*float64(k), 31*int64(i)+k))
		}
		for si, in := range samples {
			want := g.ComponentsOf(in)
			got := sampleComponents(s, g, in, nil)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("case %d sample %d: components diverge from graph.ComponentsOf:\ngot  %v\nwant %v", i, si, got, want)
			}
			if c := s.seen.Count(); c != 0 {
				t.Fatalf("case %d sample %d: %d seen bits left set", i, si, c)
			}
			if len(want) < 2 {
				continue
			}
			stop := errors.New("stop")
			visits := 0
			err := s.eachComponent(g, nil, func([]int) error {
				visits++
				return stop
			})
			if err != stop || visits != 1 {
				t.Fatalf("case %d sample %d: a failing visit returned %v after %d visits", i, si, err, visits)
			}
			if c := s.seen.Count(); c != 0 {
				t.Fatalf("case %d sample %d: %d seen bits left set after a failed walk", i, si, c)
			}
		}
	}
}

// TestComponentsExamineSampledRows pins the search's cost through its
// flight events: a version's depth events count every sampled node once
// and examine exactly Σ_{v∈S} deg v arena entries — each sampled row
// once, no other row — and there is one event per depth.
func TestComponentsExamineSampledRows(t *testing.T) {
	g := gen.SparsePlantedNearClique(5000, 200, 0.02, 8, 3).Graph
	s := new(seqScratch)
	for k, density := range []float64{0.001, 0.02, 0.1, 0.4} {
		in := randomSample(g.N(), density, int64(k))
		var degSum int64
		in.ForEach(func(v int) { degSum += int64(g.Degree(v)) })
		rec := flight.New(4096)
		ft := newFlightTrace(rec)
		ft.begin("components")
		comps := sampleComponents(s, g, in, ft)
		ft.end(in.Count())
		deepest := 0
		for _, c := range comps {
			// The depth of a component's search is below its size.
			deepest = max(deepest, len(c))
		}
		var nodes, examined int64
		rounds := 0
		for _, ev := range rec.Snapshot() {
			if ev.Kind == flight.KindRound {
				rounds++
				nodes += int64(ev.Frontier)
				examined += ev.Frames
			}
		}
		if nodes != int64(in.Count()) || examined != degSum {
			t.Fatalf("density %g: depth events count %d nodes and %d entries, want |S| = %d and Σ deg = %d",
				density, nodes, examined, in.Count(), degSum)
		}
		if rounds == 0 || rounds > deepest {
			t.Fatalf("density %g: %d depth events for a largest component of %d", density, rounds, deepest)
		}
	}
}

// FuzzComponents checks the component search against graph.ComponentsOf
// on an arbitrary small graph and sample: byte 0 sets n ≤ 64, the next
// ⌈n/8⌉ bytes are the sample's bits and each later pair of bytes an edge.
func FuzzComponents(f *testing.F) {
	f.Add([]byte{10, 0xff, 0x03, 0, 1, 1, 2, 5, 6, 9, 0})
	f.Add([]byte{63, 0xaa, 0x55, 0xff, 0, 0x0f, 0xf0, 0x81, 0x18, 1, 2, 3, 4, 60, 61, 2, 62})
	f.Add([]byte{0})
	s := new(seqScratch)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		data = data[1:]
		in := bitset.New(n)
		for v := 0; v < n && v/8 < len(data); v++ {
			if data[v/8]>>(v%8)&1 == 1 {
				in.Add(v)
			}
		}
		data = data[min(len(data), (n+7)/8):]
		b := graph.NewSparseBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		want := g.ComponentsOf(in)
		got := sampleComponents(s, g, in, nil)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("components diverge from graph.ComponentsOf:\ngot  %v\nwant %v", got, want)
		}
		if c := s.seen.Count(); c != 0 {
			t.Fatalf("%d seen bits left set", c)
		}
	})
}

// TestFindSequentialFlightDepthEvents pins the replay's round events to
// search depths: a traced solve that samples over a thousand components
// per version emits at most HardMaxComponentSize+1 round events per
// version, so a default-sized ring keeps every phase event. A solve that
// fails on an oversized component still records that version's depths.
func TestFindSequentialFlightDepthEvents(t *testing.T) {
	const n, versions = 20_000, 3
	g := gen.SparseErdosRenyi(n, 3.0/n, 7)
	rec := flight.New(flight.DefaultCapacity)
	if _, err := FindSequential(g, Options{
		Epsilon: 0.25, ExpectedSample: 2000, Seed: 2, Versions: versions, Flight: rec,
	}); err != nil {
		t.Fatal(err)
	}
	rounds := map[int32]int{}
	comps := map[int32]int32{}
	phases := 0
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case flight.KindRound:
			if rounds[ev.Phase] == 0 {
				comps[ev.Phase] = ev.Frontier // depth 0: one start node per component
			}
			rounds[ev.Phase]++
		case flight.KindPhase:
			phases++
		}
	}
	if phases != versions+1 {
		t.Fatalf("%d phase events retained, want %d", phases, versions+1)
	}
	if len(rounds) != versions {
		t.Fatalf("round events in %d phases, want %d", len(rounds), versions)
	}
	for ph, r := range rounds {
		if comps[ph] < 1000 {
			t.Fatalf("%s: %d components, want ≥ 1000 for the bound to mean anything", rec.PhaseName(ph), comps[ph])
		}
		if r > HardMaxComponentSize+1 {
			t.Fatalf("%s: %d round events, want ≤ %d", rec.PhaseName(ph), r, HardMaxComponentSize+1)
		}
	}

	rec = flight.New(flight.DefaultCapacity)
	_, err := FindSequential(gen.Complete(30), Options{Epsilon: 0.25, P: 1, Seed: 1, Flight: rec})
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("a sampled 30-clique gave %v, want ErrComponentTooLarge", err)
	}
	var nodes, examined int64
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flight.KindRound {
			nodes += int64(ev.Frontier)
			examined += ev.Frames
		}
	}
	if nodes != 30 || examined != 30*29 {
		t.Fatalf("failed solve recorded depths of %d nodes and %d entries, want 30 and %d", nodes, examined, 30*29)
	}
}
