package core

import (
	"runtime"
	"sync"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// This file is the replay's worker split. The replay hands a worker only
// work whose output is its own — distinct words of a bit set, distinct
// voters' histograms, a partial integer sum — and joins every worker
// before anything reads that output, so the transcript is the serial
// one at any worker count. One part runs on the calling goroutine;
// with one worker nothing else starts.

// minPartWork is the least work, in nodes or adjacency entries, worth a
// worker of its own: below it, starting and joining a goroutine costs
// more than the part saves.
const minPartWork = 1 << 13

// workers resolves Options.Parallelism: 0 means GOMAXPROCS.
func workers(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// parts returns how many workers, at most par, a job of work units
// deserves: one per minPartWork units, and at least one.
func parts(work, par int) int {
	return max(1, min(par, work/minPartWork))
}

// splitter is the reusable state of one split: the run bounds, the
// runs' partial sums, and the wait group that joins them.
type splitter struct {
	cuts []int
	sums []int
	wg   sync.WaitGroup
}

// cut splits items 0..n−1 into runs of near-equal total weight, as
// many as parts grants that total, and returns how many: run p is items
// [sp.cuts[p], sp.cuts[p+1]).
func (sp *splitter) cut(n, par int, weight func(i int) int) int {
	sp.cuts = append(sp.cuts[:0], 0)
	if par > 1 {
		total := 0
		for i := 0; i < n; i++ {
			total += weight(i)
		}
		k, acc := parts(total, par), 0
		for i := 0; i < n; i++ {
			if len(sp.cuts) < k && acc*k >= len(sp.cuts)*total {
				sp.cuts = append(sp.cuts, i)
			}
			acc += weight(i)
		}
	}
	sp.cuts = append(sp.cuts, n)
	return len(sp.cuts) - 1
}

// density returns Graph.Density of the distinct nodes — its exact float
// expression over the exact integer count of adjacency entries inside
// the set — with set, all-zero on entry and on return, as the
// membership scratch. The entries are summed in up to par runs of
// near-equal Σ deg.
func (sp *splitter) density(g *graph.Graph, nodes []int, set *bitset.Set, par int) float64 {
	for _, u := range nodes {
		set.Add(u)
	}
	k := sp.cut(len(nodes), par, func(i int) int { return g.Degree(nodes[i]) })
	sp.sums = append(sp.sums[:0], make([]int, k)...)
	for p := 1; p < k; p++ {
		sp.wg.Add(1)
		go func() {
			defer sp.wg.Done()
			sp.sums[p] = degreeSum(g, nodes[sp.cuts[p]:sp.cuts[p+1]], set)
		}()
	}
	sp.sums[0] = degreeSum(g, nodes[:sp.cuts[1]], set)
	sp.wg.Wait()
	total := 0
	for _, s := range sp.sums {
		total += s
	}
	for _, u := range nodes {
		set.Remove(u)
	}
	if n := len(nodes); n > 1 {
		return float64(2*(total/2)) / float64(n*(n-1))
	}
	return 1
}

// degreeSum is Σ DegreeIn(u, set) over nodes.
func degreeSum(g *graph.Graph, nodes []int, set *bitset.Set) int {
	s := 0
	for _, u := range nodes {
		s += g.DegreeIn(u, set)
	}
	return s
}
