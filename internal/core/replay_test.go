package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nearclique/internal/bitset"
	"nearclique/internal/congest"
	"nearclique/internal/flight"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// TestGatherVotersMatchesModel pins component-local voter gathering to
// the set-algebraic model members ∪ (Γ(members) \ S) on random and
// planted graphs: sorted, duplicate-free — a neighbor shared by two
// members appears once — and the pooled mark set all-zero after every
// component.
func TestGatherVotersMatchesModel(t *testing.T) {
	cases := map[string]*graph.Graph{
		"er":      gen.ErdosRenyi(300, 0.05, 6),
		"planted": gen.PlantedNearClique(400, 120, 0.1, 0.02, 5).Graph,
		"sparse":  gen.SparsePlantedNearClique(2000, 200, 0.01, 8, 5).Graph,
	}
	shared := 0 // voters adjacent to two or more members, over all components
	for name, g := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			opts, err := Options{Epsilon: 0.25, ExpectedSample: 12, Seed: seed, Versions: 2}.validated(g.N())
			if err != nil {
				t.Fatal(err)
			}
			scratch := getSeqScratch()
			res := &Result{SampleSizes: make([]int, opts.Versions)}
			_, err = collectComps(context.Background(), g, opts, scratch, nil, res, func(sc *seqComp) {
				if c := scratch.mark.Count(); c != 0 {
					t.Fatalf("%s seed %d: %d mark bits left set after a component", name, seed, c)
				}
				members := make([]int, len(sc.members))
				for i, m := range sc.members {
					members[i] = int(m)
				}
				model := bitset.FromIndices(g.N(), members)
				hits := map[int]int{}
				for _, m := range members {
					for _, w := range g.Neighbors(m) {
						if u := int(w); !scratch.inS.Contains(u) {
							model.Add(u)
							hits[u]++
						}
					}
				}
				for _, c := range hits {
					if c > 1 {
						shared++
					}
				}
				if want := model.Indices(); !slices.Equal(sc.voters, want) {
					t.Fatalf("%s seed %d members %v:\nvoters %v\nmodel  %v", name, seed, members, sc.voters, want)
				}
			})
			putSeqScratch(scratch)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no voter was adjacent to two members; the dedup case went untested")
	}
}

// TestReplayScratchZeroAfterRun pins the all-zero invariant of the
// pooled scratch that the replay sets and clears entry by entry — the
// K/T kernel's dense voter index, the mark set that dedups voters and
// holds a density check's T set when its component keeps no rows, and
// the union of the samples that the ID walk tracks its positions in,
// and the component search's seen set — after a solve, after a search
// and its probes, after an ErrComponentTooLarge abort that follows
// built components, and after a cancellation, including one before the
// last coin pass, which leaves the union unwalked. A search leaves them all-zero whether it
// ends in a result, in ErrNotFound or canceled between probes, and so
// does every probe's density check.
func TestReplayScratchZeroAfterRun(t *testing.T) {
	ctx := context.Background()
	g := gen.PlantedNearClique(400, 120, 0.1, 0.02, 5).Graph
	scratch := getSeqScratch()
	defer putSeqScratch(scratch)
	zero := func(stage string) {
		t.Helper()
		if c := scratch.mark.Count(); c != 0 {
			t.Fatalf("%s: %d mark bits left set", stage, c)
		}
		if c := scratch.union.Count(); c != 0 {
			t.Fatalf("%s: %d union bits left set", stage, c)
		}
		if c := scratch.seen.Count(); c != 0 {
			t.Fatalf("%s: %d seen bits left set", stage, c)
		}
		for v, p := range scratch.kt.voterPos {
			if p != 0 {
				t.Fatalf("%s: voter index of node %d left at %d", stage, v, p)
			}
		}
	}
	check := func(stage string, comps []*seqComp) {
		t.Helper()
		if len(comps) == 0 {
			t.Fatalf("%s: no component was built; the check would be vacuous", stage)
		}
		zero(stage)
	}

	opts, err := Options{Epsilon: 0.25, ExpectedSample: 12, Seed: 1, Versions: 2}.validated(g.N())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{SampleSizes: make([]int, opts.Versions)}
	comps, err := collectComps(ctx, g, opts, scratch, nil, res, func(sc *seqComp) {
		sc.finish(opts.Epsilon, opts.MinSize, &scratch.kt)
	})
	if err != nil {
		t.Fatal(err)
	}
	b := newBallot(comps, &scratch.kt, opts.MinSize)
	decideAndCommit(g, opts, comps, &b, res, &scratch.kt, scratch.mark)
	check("solve", comps)

	so, need, err := SearchOptions{Rho: 0.05, ExpectedSample: 12, Versions: 2, Seed: 1}.normalized(g.N())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := buildSearchCache(ctx, g, so, need, scratch)
	if err != nil || cache.failed {
		t.Fatalf("search cache: err %v, failed %v", err, cache.failed)
	}
	// A probe that detects has checked a density.
	if !cache.probe(so.EpsMax) {
		t.Fatal("εMax probe found nothing; no density check would run")
	}
	check("search probe", cache.comps)
	cache.probe(so.EpsMin)
	cache.materialize(so.EpsMax)
	check("search", cache.comps)

	tight := so
	tight.EpsMin, tight.EpsMax = 0.001, 0.002
	if _, _, err := cache.search(ctx, tight); !errors.Is(err, ErrNotFound) {
		t.Fatalf("search at ε ≤ 0.002: err %v, want ErrNotFound", err)
	}
	check("search not found", cache.comps)

	cache.probe(so.EpsMax)
	canceled := &cancelAfter{live: 1}
	if _, _, err := cache.search(canceled, so); !errors.Is(err, context.Canceled) {
		t.Fatalf("search canceled after one probe: err %v, want context.Canceled", err)
	}
	if canceled.live >= 0 {
		t.Fatal("the search was not canceled between probes")
	}
	check("search canceled", cache.comps)

	opts.MaxComponentSize = 6 // seed 1 builds six components, then meets one of seven
	res = &Result{SampleSizes: make([]int, opts.Versions)}
	comps, err = collectComps(ctx, g, opts, scratch, nil, res, func(*seqComp) {})
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("abort: err %v, want ErrComponentTooLarge", err)
	}
	check("abort", comps)

	// 65 versions take two coin passes; canceled in version 0, the run
	// has ORed the first pass into the union and never walks it.
	many := opts
	many.Versions, many.MaxComponentSize = 65, DefaultMaxComponentSize
	res = &Result{SampleSizes: make([]int, many.Versions)}
	_, err = collectComps(&cancelAfter{live: 1}, g, many, scratch, nil, res, func(*seqComp) {})
	if !errors.Is(err, context.Canceled) || res.SampleSizes[0] == 0 {
		t.Fatalf("canceled in version 0 of 65: err %v, sample %d", err, res.SampleSizes[0])
	}
	zero("canceled before the last coin pass")

	// On two workers the ID draws and the walk run on a worker of their
	// own from the last coin pass on. A run canceled at its first
	// component, and one aborted by its first component of two nodes,
	// return while that worker is most likely still at work:
	// each must join it, so the solve that follows on the same scratch
	// — whose own worker rewrites the draws — races with nothing (under
	// -race) and elects the roots a fresh solve elects.
	big, bigOpts := parallelInstance()
	bigOpts, err = bigOpts.validated(big.N())
	if err != nil {
		t.Fatal(err)
	}
	bigOpts.Parallelism = 2
	if parts(big.N(), 2) < 2 {
		t.Fatalf("n = %d starts no roots worker; the runs below would be serial", big.N())
	}
	solve := func(stage string, ctx context.Context, opts Options) (*Result, []*seqComp, error) {
		res := &Result{SampleSizes: make([]int, opts.Versions)}
		comps, err := collectComps(ctx, big, opts, scratch, nil, res, func(sc *seqComp) {
			sc.finish(opts.Epsilon, opts.MinSize, &scratch.kt)
		})
		if err == nil {
			b := newBallot(comps, &scratch.kt, opts.MinSize)
			decideAndCommit(big, opts, comps, &b, res, &scratch.kt, scratch.mark)
		}
		zero(stage)
		return res, comps, err
	}
	if _, _, err := solve("parallel canceled", &cancelAfter{live: 1}, bigOpts); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel run canceled at its first component: err %v, want context.Canceled", err)
	}
	tiny := bigOpts
	tiny.MaxComponentSize = 1
	if _, _, err := solve("parallel abort", ctx, tiny); !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("parallel abort: err %v, want ErrComponentTooLarge", err)
	}
	got, comps, err := solve("parallel solve", ctx, bigOpts)
	if err != nil {
		t.Fatal(err)
	}
	check("parallel solve", comps)
	want, err := FindSequentialContext(ctx, big, bigOpts)
	if err != nil {
		t.Fatal(err)
	}
	if resultTranscript(got, true) != resultTranscript(want, true) {
		t.Fatal("the solve after the canceled and aborted runs diverges from a fresh solve")
	}
}

// parallelInstance is the shape that crosses the replay's split
// thresholds at two workers: n = 2e4 nodes sample in two ranges and
// start the roots worker, and the planted set of 600 (degree ≈ 600 each)
// gives its components an adjacency of well over 2·minPartWork entries,
// above the diagonal as well as in all, so their rows are filled and
// their histograms built in two runs.
func parallelInstance() (*graph.Graph, Options) {
	const n, size = 20_000, 600
	g := gen.SparsePlantedNearClique(n, size, 0.25*0.25*0.25, 10, 1).Graph
	return g, Options{Epsilon: 0.25, ExpectedSample: 2 * float64(n) / size, Seed: 1, Versions: 2}
}

// TestElectRootsMatchPermutedIDs pins the roots that electRoots looks
// up in the walked union of the samples: every component's root is its
// member of least PermutedIDs(n, seed) ID, over one and two coin
// passes, at Parallelism 1 and 2, at an n where the roots worker runs
// and at one where the same steps run inline. Nodes sampled in several
// versions are walked once.
func TestElectRootsMatchPermutedIDs(t *testing.T) {
	big, bigOpts := parallelInstance()
	small := gen.SparsePlantedNearClique(2000, 200, 0.25*0.25*0.25, 10, 1).Graph
	smallOpts := Options{Epsilon: 0.25, ExpectedSample: 20, Seed: 1}
	if parts(big.N(), 2) < 2 || parts(small.N(), 2) > 1 {
		t.Fatalf("n = %d must start the roots worker at Parallelism 2 and n = %d must not", big.N(), small.N())
	}
	resampled := 0 // nodes sampled in two or more versions of one run
	for _, inst := range []struct {
		g    *graph.Graph
		opts Options
	}{{big, bigOpts}, {small, smallOpts}} {
		n := inst.g.N()
		perm := congest.PermutedIDs(n, inst.opts.Seed)
		for _, versions := range []int{1, 4, 64, 65, 130} {
			for _, par := range []int{1, 2} {
				o := inst.opts
				// A floor above n builds no K/T tables; the roots do not read them.
				o.Versions, o.Parallelism, o.MinSize = versions, par, n+1
				opts, err := o.validated(n)
				if err != nil {
					t.Fatal(err)
				}
				scratch := getSeqScratch()
				res := &Result{SampleSizes: make([]int, versions)}
				comps, err := collectComps(context.Background(), inst.g, opts, scratch, nil, res, func(*seqComp) {})
				putSeqScratch(scratch)
				if err != nil {
					t.Fatalf("n=%d versions=%d par=%d: %v", n, versions, par, err)
				}
				if len(comps) == 0 {
					t.Fatalf("n=%d versions=%d par=%d: no component; the check would be vacuous", n, versions, par)
				}
				times := map[int32]int{}
				for _, sc := range comps {
					root := sc.members[0]
					for _, m := range sc.members {
						if times[m]++; times[m] == 2 {
							resampled++
						}
						if perm[m] < perm[root] {
							root = m
						}
					}
					if sc.rootIdx != root || sc.rootID != perm[root] {
						t.Fatalf("n=%d versions=%d par=%d: version %d component %v has root %d (ID %d), want %d (ID %d)",
							n, versions, par, sc.version, sc.members, sc.rootIdx, sc.rootID, root, perm[root])
					}
				}
			}
		}
	}
	if resampled == 0 {
		t.Fatal("no node was sampled in two versions; the dedup case went untested")
	}
}

// TestFailedReplayLabelsAllBottom pins the failure contract of a solve
// whose roots worker may be running: canceled before its first coin
// pass, canceled after version 0, or aborted by ErrComponentTooLarge, a
// run commits nothing, so Label reads ⊥ for every node, and leaves an
// all-zero union, at Parallelism 1 and 2, with the worker started (3
// versions, one coin pass) and not yet started (65 versions, whose
// second pass never runs). A run that fails before its last coin pass
// never walks.
func TestFailedReplayLabelsAllBottom(t *testing.T) {
	g, base := parallelInstance()
	if parts(g.N(), 2) < 2 {
		t.Fatalf("n = %d starts no roots worker; the runs below would be serial", g.N())
	}
	for _, versions := range []int{3, 65} {
		for _, par := range []int{1, 2} {
			cases := []struct {
				name   string
				ctx    func(o *Options) context.Context
				maxC   int
				want   error
				walked bool // whether the walk may have started
			}{
				{"canceled before the first coin pass", func(*Options) context.Context {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					return ctx
				}, 0, context.Canceled, false},
				{"canceled after version 0", func(o *Options) context.Context {
					ctx, cancel := context.WithCancel(context.Background())
					o.Progress = func(p Progress) {
						if p.Version == 0 {
							cancel()
						}
					}
					return ctx
				}, 0, context.Canceled, versions <= 64},
				{"aborted", func(*Options) context.Context { return context.Background() },
					1, ErrComponentTooLarge, versions <= 64},
			}
			for _, c := range cases {
				o := base
				o.Versions, o.Parallelism, o.MaxComponentSize = versions, par, c.maxC
				ctx := c.ctx(&o)
				opts, err := o.validated(g.N())
				if err != nil {
					t.Fatal(err)
				}
				scratch := new(seqScratch)
				res := &Result{SampleSizes: make([]int, versions)}
				_, err = collectComps(ctx, g, opts, scratch, nil, res, func(*seqComp) {})
				stage := fmt.Sprintf("versions=%d par=%d %s", versions, par, c.name)
				if !errors.Is(err, c.want) {
					t.Fatalf("%s: err %v, want %v", stage, err, c.want)
				}
				for v := 0; v < g.N(); v++ {
					if l := res.Label(v); l != NoLabel {
						t.Fatalf("%s: node %d labeled %d", stage, v, l)
					}
				}
				if n := scratch.union.Count(); n != 0 {
					t.Fatalf("%s: %d union bits left set", stage, n)
				}
				if !c.walked && scratch.nodes != nil {
					t.Fatalf("%s: the ID walk ran", stage)
				}
			}
		}
	}

	// A worker that reaches the walk after the run has failed skips it.
	scratch := new(seqScratch)
	scratch.sizeFor(g.N(), 1)
	scratch.union.Add(0)
	scratch.failed.Store(true)
	scratch.startRoots(g.N(), 1, true)
	scratch.worker.Wait()
	if scratch.nodes != nil {
		t.Fatal("a worker started after a failure walked the union")
	}
}

// TestParallelReplayBitIdentical pins the parallel replay to the serial
// one: Solve and Search on an instance that crosses every split
// threshold give byte-identical transcripts and flight event streams
// at Parallelism 1, 2 and 3 under GOMAXPROCS 1, 2 and 4, and three
// concurrent solves on two workers each match a solo solve.
func TestParallelReplayBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	g, opts := parallelInstance()
	so := SearchOptions{Rho: 0.02, ExpectedSample: opts.ExpectedSample, Versions: 2, Seed: 1}

	res, err := FindSequentialContext(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no candidate committed; the histogram and row split would go untested")
	}
	if work := degreeTotal(g, best.Members); work < 2*minPartWork {
		t.Fatalf("best candidate's adjacency is %d entries, below the split threshold %d", work, 2*minPartWork)
	}
	if work := entriesAbove(g, best.Members); work < 2*minPartWork {
		t.Fatalf("best candidate has %d adjacency entries above the diagonal, below the row fill's split threshold %d", work, 2*minPartWork)
	}

	var want string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, par := range []int{1, 2, 3} {
			o, s := opts, so
			o.Parallelism, s.Parallelism = par, par
			o.Flight, s.Flight = flight.New(4096), flight.New(4096)
			res, err := FindSequentialContext(ctx, g, o)
			if err != nil {
				t.Fatal(err)
			}
			eps, sres, err := SearchCachedContext(ctx, g, s)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("solve:\n%s%s\nsearch ε=%v:\n%s%s", resultTranscript(res, true), eventStream(o.Flight),
				eps, resultTranscript(sres, true), eventStream(s.Flight))
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("GOMAXPROCS=%d Parallelism=%d: transcript or event stream diverges from GOMAXPROCS=1 Parallelism=1", procs, par)
			}
		}
	}

	// Concurrent solves on two workers each draw their own pooled
	// scratch; under -race this also checks that no worker outlives its
	// run.
	solo := resultTranscript(res, true)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.Parallelism = 2
			res, err := FindSequentialContext(ctx, g, o)
			if err != nil {
				t.Error(err)
			} else if resultTranscript(res, true) != solo {
				t.Errorf("concurrent solve %d diverges from a solo solve", i)
			}
		}()
	}
	wg.Wait()
}

// degreeTotal is Σ deg over nodes.
func degreeTotal(g *graph.Graph, nodes []int) int {
	total := 0
	for _, u := range nodes {
		total += g.Degree(u)
	}
	return total
}

// entriesAbove counts the adjacency entries from each of the sorted
// nodes to a higher one of them: the upper triangle of G[nodes], a lower
// bound on the entries a row fill over a superset of nodes reads.
func entriesAbove(g *graph.Graph, nodes []int) int {
	total := 0
	for _, u := range nodes {
		for _, v := range g.Neighbors(u) {
			if _, ok := slices.BinarySearch(nodes, int(v)); ok && int(v) > u {
				total++
			}
		}
	}
	return total
}

// eventStream canonicalizes a recorder's events: everything but the
// wall-clock stamps and the heap deltas, which measure the machine.
func eventStream(rec *flight.Recorder) string {
	var b strings.Builder
	for _, ev := range rec.Snapshot() {
		fmt.Fprintf(&b, "%s %s round=%d frontier=%d frames=%d bytes=%d\n",
			ev.Kind, rec.PhaseName(ev.Phase), ev.Round, ev.Frontier, ev.Frames, ev.Bytes)
	}
	return b.String()
}

// cancelAfter is a context that reports itself live to its first live
// Err calls and canceled from then on: a cancellation that lands between
// two probes of a search.
type cancelAfter struct{ live int }

func (*cancelAfter) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*cancelAfter) Done() <-chan struct{}       { return nil }
func (*cancelAfter) Value(any) any               { return nil }

func (c *cancelAfter) Err() error {
	if c.live--; c.live >= 0 {
		return nil
	}
	return context.Canceled
}

// replayInstance is the n = 2e5 shape of the replay's allocation test and
// benchmark: a planted ε³-near clique of 1000 nodes (ε = 0.25) over
// average degree 10, sampled at λ = 2 planted nodes per solve in
// expectation.
func replayInstance() (*graph.Graph, Options) {
	const n, size = 200_000, 1000
	g := gen.SparsePlantedNearClique(n, size, 0.25*0.25*0.25, 10, 1).Graph
	g.CSR()
	return g, Options{Epsilon: 0.25, ExpectedSample: 2 * float64(n) / size, Seed: 1}
}

// TestSolveReplayAllocsPerNode pins the replay's allocation budget: once
// the scratch pool is warm, a solve on the n = 2e5 planted instance
// allocates at most 32 bytes per node, serially on one P and on two
// workers at GOMAXPROCS 2. Everything graph-sized — coins, IDs,
// traversal and mark sets, the histogram workers' buffers — is pooled,
// and the Result holds only the committed candidates.
func TestSolveReplayAllocsPerNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g, opts := replayInstance()
	for _, row := range []struct{ procs, par int }{{1, 0}, {2, 2}} {
		runtime.GOMAXPROCS(row.procs)
		opts.Parallelism = row.par
		const runs = 4
		solveAll := func() {
			for i := 0; i < runs; i++ {
				opts.Seed = int64(i + 1)
				if _, err := FindSequentialContext(context.Background(), g, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		solveAll() // warm-up: the pool and the kernel buffers reach their size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solveAll()
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(g.N())
		t.Logf("GOMAXPROCS=%d Parallelism=%d: %.1f B/node per solve", row.procs, row.par, perNode)
		if perNode > 32 {
			t.Fatalf("GOMAXPROCS=%d Parallelism=%d: a solve allocates %.1f B/node, want ≤ 32", row.procs, row.par, perNode)
		}
	}
}

// TestSolveReplayAllocsFlatInN pins the bytes a warm FindSequential
// allocates per solve to the answer, not to n: on planted instances of
// n = 2e4 and 8e4 nodes at the same expected sample size (the same
// 600-node planted set, average degree 10), the mean over 8 seeds at 4n
// stays within 1.5× of that at n, where a single n-entry array of int64
// would add 480 KB. The pooled scratch is graph-sized, so each size
// warms its own first; -race builds drop pooled items at random, so
// the test does not run there.
func TestSolveReplayAllocsFlatInN(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const size, seeds = 600, 8
	perSolve := func(n int) float64 {
		g := gen.SparsePlantedNearClique(n, size, 0.25*0.25*0.25, 10, 1).Graph
		opts := Options{Epsilon: 0.25, ExpectedSample: 2 * 20_000.0 / size}
		solveAll := func() {
			for i := int64(1); i <= seeds; i++ {
				opts.Seed = i
				if _, err := FindSequential(g, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		solveAll() // warm-up: the pool and the kernel buffers reach their size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solveAll()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / seeds
	}
	small, large := perSolve(20_000), perSolve(80_000)
	t.Logf("bytes per solve: %.0f at n = 2e4, %.0f at n = 8e4", small, large)
	if large > 1.5*small {
		t.Fatalf("a solve allocates %.0f B at n = 8e4, %.0f B at n = 2e4: the allocation grows with n", large, small)
	}
}

// BenchmarkSolveReplay times the replay that Solve runs for engine=auto
// (and seq and frontier) on the n = 2e5 planted instance. Iteration i
// solves with coin seed i+1, so ns/op averages over seeds.
func BenchmarkSolveReplay(b *testing.B) {
	g, opts := replayInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		if _, err := FindSequentialContext(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFindSequentialAcrossGOMAXPROCS extends the engine
// determinism suite to the replay every centralized Solve engine runs:
// at every GOMAXPROCS setting its outputs equal the sharded simulator's,
// and its transcript, including the all-zero metrics block, is
// bit-identical.
func TestFindSequentialAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2}
	for name, g := range determinismInstances() {
		dist, err := Find(g, base)
		if err != nil {
			t.Fatal(err)
		}
		want := resultTranscript(dist, false)
		var full string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			res, err := FindSequential(g, base)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultTranscript(res, false); got != want {
				t.Fatalf("%s GOMAXPROCS=%d: replay diverges from the simulator:\n%s\nvs\n%s",
					name, procs, got, want)
			}
			if got := resultTranscript(res, true); full == "" {
				full = got
			} else if got != full {
				t.Fatalf("%s GOMAXPROCS=%d: replay transcript differs from GOMAXPROCS=1", name, procs)
			}
		}
	}
}

// TestFindSequentialFlightRoundEvents pins the flight contract of the
// replay: every traversal wave emits one KindRound event carrying a
// nonzero frontier popcount, and phases carry their wave counts.
func TestFindSequentialFlightRoundEvents(t *testing.T) {
	g := gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph
	rec := flight.New(4096)
	_, err := FindSequential(g, Options{
		Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2, Flight: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, phases := 0, 0
	var lastRound int64
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case flight.KindRound:
			rounds++
			if ev.Frontier <= 0 {
				t.Fatalf("round event %d has frontier popcount %d", rounds, ev.Frontier)
			}
			if ev.Frames <= 0 && ev.Frontier > 0 {
				// A wave over isolated sampled vertices can examine zero
				// arena entries; anything else must count frames.
				continue
			}
			if ev.Round <= lastRound {
				t.Fatalf("round index not increasing: %d after %d", ev.Round, lastRound)
			}
			lastRound = ev.Round
			if ev.Bytes != 4*ev.Frames {
				t.Fatalf("round payload %d != 4×frames %d", ev.Bytes, ev.Frames)
			}
		case flight.KindPhase:
			phases++
		}
	}
	if rounds == 0 {
		t.Fatal("replay emitted no per-wave round events")
	}
	if phases < 3 { // two explore versions + decide
		t.Fatalf("replay emitted %d phase events, want ≥ 3", phases)
	}
}
