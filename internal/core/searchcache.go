package core

import (
	"context"
	"errors"
	"fmt"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// This file is the centralized replay's ε bisection: Solver.Search's
// execution path for EngineAuto and EngineSequential. The observation
// that makes it fast: the sampling coins depend only on (seed, node,
// version) — a probe never draws a coin that depends on ε — so every
// probe of the bisection shares the same samples, the same components,
// the same voters, and the same member adjacency. SearchCachedContext
// therefore runs the traversal ONCE (one breadth-first search per
// sampled component, via collectComps), caches the ε-invariant state, and
// re-evaluates only the K/T thresholds and the decision stage per
// probe; the full Result is materialized once, for the winning ε.
// Detection and the returned Result are bit-identical to
// SearchWithRunner with FindSequentialContext, one full replay per probe
// (pinned by the search parity suite) — this path changes only what a
// probe costs.

// SearchCachedContext bisects over ε with cached probes; see
// the file comment. Cancellation is observed between probes and inside
// the shared traversal; the error wraps the context error.
func SearchCachedContext(ctx context.Context, g *graph.Graph, so SearchOptions) (float64, *Result, error) {
	so, need, err := so.normalized(g.N())
	if err != nil {
		return 0, nil, err
	}
	scratch := getSeqScratch()
	defer putSeqScratch(scratch)
	cache, err := buildSearchCache(ctx, g, so, need, scratch)
	if err != nil {
		return 0, nil, err
	}
	return cache.search(ctx, so)
}

// search runs the bisection over [so.EpsMin, so.EpsMax] on the cache,
// in a "probes" flight phase, and materializes the winning ε's Result
// in a "materialize" phase.
func (c *searchCache) search(ctx context.Context, so SearchOptions) (float64, *Result, error) {
	c.ft.begin("probes")
	eps, probes, err := c.bisect(ctx, so)
	c.ft.end(probes)
	if err != nil {
		return 0, nil, err
	}
	c.ft.begin("materialize")
	res := c.materialize(eps)
	c.ft.end(len(res.Candidates))
	return eps, res, nil
}

// bisect returns the least ε of the bisection that detects and how many
// probes it ran.
func (c *searchCache) bisect(ctx context.Context, so SearchOptions) (float64, int, error) {
	probes := 0
	probe := func(eps float64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("core: search interrupted: %w", err)
		}
		probes++
		return c.probe(eps), nil
	}
	lo, hi := so.EpsMin, so.EpsMax
	ok, err := probe(hi)
	if err != nil {
		return 0, probes, err
	}
	if !ok {
		return 0, probes, ErrNotFound
	}
	bestEps := hi
	for step := 0; step < so.Steps; step++ {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, probes, err
		}
		if ok {
			hi, bestEps = mid, mid
		} else {
			lo = mid
		}
	}
	return bestEps, probes, nil
}

// searchCache is the ε-invariant state shared by every probe of one
// bisection — the components with their K/T kernel tables and their
// ballot — plus the pooled scratch that makes a probe allocation-free:
// the kernel's buffers and T tables are reused, never reallocated.
// set is the scratch's all-zero n-bit mark set, which the density check
// of a component without rows borrows.
type searchCache struct {
	g    *graph.Graph
	opts Options // resolved probe options (Epsilon field unused)
	need int

	sampleSizes  []int
	maxComponent int
	failed       bool // an oversized component fails every probe identically

	comps  []*seqComp
	ballot ballot

	kt    *ktScratch
	set   *bitset.Set
	acked []int32 // per-probe ack counters, indexed like comps
	ft    *flightTrace
}

// buildSearchCache runs the shared traversal and captures everything a
// probe needs. A context error aborts (wrapped); an oversized component
// marks the cache failed — the condition is ε-invariant, so it fails
// every probe exactly as it fails every full-replay probe.
func buildSearchCache(ctx context.Context, g *graph.Graph, so SearchOptions, need int, scratch *seqScratch) (*searchCache, error) {
	opts, err := Options{
		Epsilon:          so.EpsMax, // any valid ε: the traversal draws no ε-dependent state
		ExpectedSample:   so.ExpectedSample,
		Seed:             so.Seed,
		Versions:         so.Versions,
		MinSize:          need,
		MaxComponentSize: so.MaxComponentSize,
		Parallelism:      so.Parallelism,
	}.validated(g.N())
	if err != nil {
		return nil, err
	}
	c := &searchCache{g: g, opts: opts, need: need, kt: &scratch.kt, ft: newFlightTrace(so.Flight)}
	res := &Result{SampleSizes: make([]int, opts.Versions)}
	comps, err := collectComps(ctx, g, opts, scratch, c.ft, res, func(*seqComp) {})
	c.sampleSizes, c.maxComponent = res.SampleSizes, res.MaxComponent
	if err != nil {
		if errors.Is(err, ErrComponentTooLarge) {
			c.failed = true
			return c, nil
		}
		return nil, err
	}
	c.comps = comps
	c.ballot = newBallot(comps, c.kt, opts.MinSize)
	c.acked = make([]int32, len(comps))
	c.set = scratch.mark // sized by collectComps
	return c, nil
}

// evaluate re-runs the K/T kernel of every component at ε, leaving each
// component's T table, bStar and announced size exactly as a fresh
// finish at ε would.
func (c *searchCache) evaluate(eps float64) {
	for _, sc := range c.comps {
		sc.finish(eps, c.need, c.kt)
	}
}

// bestCommitted runs the decision stage over the evaluated components
// and returns the index of the best committed one in the finalized
// candidate ordering (size desc, label asc, version asc), or -1.
func (c *searchCache) bestCommitted() int {
	c.ballot.count(c.comps, c.acked)
	bestCi := -1
	for ci, sc := range c.comps {
		if !committed(sc, c.acked[ci]) {
			continue
		}
		if bestCi < 0 || candidateOrderBefore(sc, c.comps[bestCi], c.opts.Versions) {
			bestCi = ci
		}
	}
	return bestCi
}

// candidateOrderBefore reports whether a precedes b in the finalized
// candidate ordering: size (= member count) descending, then label
// ascending, then version ascending — the sort finalizeCandidates
// applies, so the probe's "best" is exactly Result.Best().
func candidateOrderBefore(a, b *seqComp, versions int) bool {
	if a.size != b.size {
		return a.size > b.size
	}
	la := a.rootID*int64(versions) + int64(a.version)
	lb := b.rootID*int64(versions) + int64(b.version)
	if la != lb {
		return la < lb
	}
	return a.version < b.version
}

// probe reports whether ε detects: some candidate commits with ≥ need
// members (MinSize already enforces the floor) and the best one's
// density meets 1−ε — the identical success predicate SearchWithRunner's
// full probes apply.
func (c *searchCache) probe(eps float64) bool {
	if c.failed {
		return false
	}
	c.evaluate(eps)
	ci := c.bestCommitted()
	return ci >= 0 && c.density(ci) >= 1-eps-1e-9
}

// density returns Graph.Density of component ci's T set as last
// evaluated.
func (c *searchCache) density(ci int) float64 {
	return c.comps[ci].density(c.g, c.kt, c.set, workers(c.opts.Parallelism))
}

// materialize builds the winning ε's full Result — finalized
// candidates, sample sizes — through the same decideAndCommit every
// engine runs, so it is bit-identical to what a full probe at that ε
// returns.
func (c *searchCache) materialize(eps float64) *Result {
	res := &Result{
		SampleSizes:  append([]int(nil), c.sampleSizes...),
		MaxComponent: c.maxComponent,
	}
	c.evaluate(eps)
	decideAndCommit(c.g, c.opts, c.comps, &c.ballot, res, c.kt, c.set)
	return res
}
