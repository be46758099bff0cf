package core

import (
	"context"
	"errors"
	"fmt"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// This file is the frontier engine's ε bisection: Solver.Search's
// execution path for the frontier (and auto) engine. The observation
// that makes it fast: the sampling coins depend only on (seed, node,
// version) — a probe never draws a coin that depends on ε — so every
// probe of the bisection shares the same samples, the same components,
// the same voters, and the same member adjacency. SearchFrontierContext
// therefore runs the traversal ONCE (64-seed cluster floods over the
// CSR arena, via collectComps), caches the ε-invariant state, and
// re-evaluates only the K/T thresholds and the decision stage per
// probe; the full Result is materialized once, for the winning ε.
// Detection and the returned Result are bit-identical to running
// SearchContext (pinned by the search parity suite) — this path changes
// only what a probe costs.

// SearchFrontier is SearchFrontierContext without cancellation.
func SearchFrontier(g *graph.Graph, so SearchOptions) (float64, *Result, error) {
	return SearchFrontierContext(context.Background(), g, so)
}

// SearchFrontierContext bisects over ε with cached frontier probes; see
// the file comment. Cancellation is observed between probes and inside
// the shared traversal; the error wraps the context error.
func SearchFrontierContext(ctx context.Context, g *graph.Graph, so SearchOptions) (float64, *Result, error) {
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

	probe := func(eps float64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("core: frontier search interrupted: %w", err)
		}
		return cache.probe(eps), nil
	}
	lo, hi := so.EpsMin, so.EpsMax
	ok, err := probe(hi)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, ErrNotFound
	}
	bestEps := hi
	for step := 0; step < so.Steps; step++ {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi, bestEps = mid, mid
		} else {
			lo = mid
		}
	}
	return bestEps, cache.materialize(bestEps), nil
}

// searchCache is the ε-invariant state shared by every probe of one
// bisection — the components with their K/T kernel tables — plus the
// pooled scratch that makes a probe allocation-free: the kernel's
// buffers and T tables are reused, never reallocated.
type searchCache struct {
	g    *graph.Graph
	opts Options // resolved probe options (Epsilon field unused)
	need int

	sampleSizes  []int
	maxComponent int
	failed       bool // an oversized component fails every probe identically

	comps      []*seqComp
	voterLists [][]int32 // distinct voter -> adjacent comp indices

	kt        *ktScratch
	acked     []int32     // per-probe ack counters, indexed like comps
	members   []int       // per-probe buffer for the density check
	memberSet *bitset.Set // the scratch's n-bit mark set, lent to the density check; empty between probes
}

// buildSearchCache runs the shared traversal and captures everything a
// probe needs. A context error aborts (wrapped); an oversized component
// marks the cache failed — the condition is ε-invariant, so it fails
// every probe exactly as it fails every SearchContext probe.
func buildSearchCache(ctx context.Context, g *graph.Graph, so SearchOptions, need int, scratch *seqScratch) (*searchCache, error) {
	opts, err := Options{
		Epsilon:        so.EpsMax, // any valid ε: the traversal draws no ε-dependent state
		ExpectedSample: so.ExpectedSample,
		Seed:           so.Seed,
		Versions:       so.Versions,
		MinSize:        need,
	}.validated(g.N())
	if err != nil {
		return nil, err
	}
	c := &searchCache{g: g, opts: opts, need: need, kt: &scratch.kt}
	res := &Result{SampleSizes: make([]int, opts.Versions)}
	ft := newFlightTrace(so.Flight)
	comps, err := collectComps(ctx, g, opts, scratch, ft, res, func(*seqComp) {})
	c.sampleSizes, c.maxComponent = res.SampleSizes, res.MaxComponent
	if err != nil {
		if errors.Is(err, ErrComponentTooLarge) {
			c.failed = true
			return c, nil
		}
		return nil, err
	}
	c.comps = comps
	c.memberSet = scratch.mark

	// Decision-stage adjacency, built in first-appearance order (a
	// deterministic order, though none is needed: ack counting is
	// order-free and the per-voter best is a strict total order).
	idx := make(map[int]int)
	for ci, sc := range comps {
		for _, u := range sc.voters {
			j, ok := idx[u]
			if !ok {
				j = len(c.voterLists)
				idx[u] = j
				c.voterLists = append(c.voterLists, nil)
			}
			c.voterLists[j] = append(c.voterLists[j], int32(ci))
		}
	}
	c.acked = make([]int32, len(comps))
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
	acked := c.acked
	for i := range acked {
		acked[i] = 0
	}
	for _, list := range c.voterLists {
		best := int32(-1)
		for _, ci := range list {
			sc := c.comps[ci]
			if sc.size == 0 {
				continue
			}
			if best < 0 || betterCandidate(sc.size, sc.rootID, int32(sc.version),
				c.comps[best].size, c.comps[best].rootID, int32(c.comps[best].version)) {
				best = ci
			}
		}
		if best >= 0 {
			acked[best]++
		}
	}
	bestCi := -1
	for ci, sc := range c.comps {
		if sc.size == 0 || int(acked[ci]) != len(sc.voters) {
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
// density meets 1−ε — the identical success predicate SearchContext's
// full probes apply.
func (c *searchCache) probe(eps float64) bool {
	if c.failed {
		return false
	}
	c.evaluate(eps)
	ci := c.bestCommitted()
	if ci < 0 {
		return false
	}
	sc := c.comps[ci]
	c.members = c.members[:0]
	for i, u := range sc.voters {
		if sc.inT(i, sc.bStar) {
			c.members = append(c.members, u)
		}
	}
	if len(c.members) < c.need {
		return false
	}
	for _, u := range c.members {
		c.memberSet.Add(u)
	}
	density := c.g.Density(c.memberSet)
	for _, u := range c.members {
		c.memberSet.Remove(u)
	}
	return density >= 1-eps-1e-9
}

// materialize builds the winning ε's full Result — labels, finalized
// candidates, sample sizes — through the same decideAndCommit every
// engine runs, so it is bit-identical to what a full probe at that ε
// returns.
func (c *searchCache) materialize(eps float64) *Result {
	res := &Result{
		Labels:       make([]int64, c.g.N()),
		SampleSizes:  append([]int(nil), c.sampleSizes...),
		MaxComponent: c.maxComponent,
	}
	for i := range res.Labels {
		res.Labels[i] = NoLabel
	}
	c.evaluate(eps)
	decideAndCommit(c.g, c.opts, c.comps, res)
	return res
}
