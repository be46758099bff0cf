package main

import (
	"hash/fnv"
	"time"
)

// shape is a planted graph: an ε³-near clique (ε = 0.25) of size nodes
// over a background of average degree avgDeg, as in the E13 scaling grid.
type shape struct {
	n, size int
	avgDeg  float64
}

var (
	shapeN1e5  = shape{n: 100_000, size: 1000, avgDeg: 12}
	shapeN1e6  = shape{n: 1_000_000, size: 2000, avgDeg: 10}
	shapeQuick = shape{n: 2000, size: 200, avgDeg: 10}
)

// The expected sample sizes put λ sampled nodes in the planted set on
// average. Exploring a sampled component costs 2^(its size), so the
// planted component, about Poisson(λ) nodes, sets the spread of op cost.
// E13's λ = 4 makes solves at n=1e6 range 0.35–1.6 s and searches at
// n=1e5 1.8–8 s, and a run of a few such ops cannot repeat. λ = 2 for a
// solve and 1 for each of a search's four versions keep the cost of most
// ops near the fixed O(n) part, at the price of more runs that sample no
// planted node and so find nothing.

// solveSample is the expected sample size of a solve (λ = 2).
func (s shape) solveSample() float64 { return 2 * float64(s.n) / float64(s.size) }

// searchSample is the expected sample size of a search version (λ = 1).
func (s shape) searchSample() float64 { return float64(s.n) / float64(s.size) }

// minSize is the smallest candidate a solve commits and the size a
// search must reach.
func (s shape) minSize() int { return s.size / 4 }

const (
	epsilon    = 0.25 // the solve ε and the ε outputs are checked at
	searchMin  = 0.02 // the ε interval searches bisect
	searchMax  = 0.45
	countK     = 3
	countDraws = 4096
	// cachedSolves and cachedCounts are the serve-cached keys.
	cachedSolves = 48
	cachedCounts = 16
	// serveRate is serve-solve's arrival rate, well below the capacity of
	// its mix on two cores, so that queueing stays short.
	serveRate = 10.0
)

// opSpec is one generated operation: all the program under test receives.
type opSpec struct {
	Kind  string `json:"kind"` // solve, refine, count or search
	Seed  int64  `json:"seed"`
	Key   int    `json:"key,omitempty"`    // serve-cached: index of the warmed key
	DueNS int64  `json:"due_ns,omitempty"` // open loop: when it is due, from the pass start
}

// workload is one benchmark workload. Its ops and its graph derive from
// the run seed alone.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop callers, or of connections
	// when rate > 0 makes the workload an open loop.
	clients int
	rate    float64
	// limit is the latency within which an op counts toward throughput.
	limit time.Duration
	// op returns operation i of the op list; warm lists the set-up ops.
	op    func(seed int64, i int) opSpec
	warm  func(seed int64) []opSpec
	setup func(b *bench, w *workload, tr *trace, root int) (*fixture, error)
}

var workloads = []*workload{
	{
		name: "serve-cached",
		why: "64 solve/count keys warmed into the result cache, then hit over loopback HTTP by 1 closed-loop client: " +
			"only the serving layer works, so an engine change must not move it",
		// One client: with two, identical runs settle at 27k or 34k ops/s
		// depending on how the four goroutines pair up on the two cores.
		clients: 1, limit: time.Minute,
		op: func(seed int64, i int) opSpec {
			return cachedKey(seed, int(derive(seed, "cached-op", i)%(cachedSolves+cachedCounts)))
		},
		warm: func(seed int64) []opSpec {
			keys := make([]opSpec, cachedSolves+cachedCounts)
			for k := range keys {
				keys[k] = cachedKey(seed, k)
			}
			return keys
		},
		setup: func(b *bench, w *workload, tr *trace, root int) (*fixture, error) {
			return setupServe(b, w, tr, root, true)
		},
	},
	{
		name: "serve-solve",
		why: "open loop at 10 req/s over 2 connections, every request a cache miss (solve 4, refine 1, count 1): " +
			"the daemon's miss path of admission, engine, refine, shadow count and encode",
		clients: 2, rate: serveRate, limit: 2 * time.Second,
		op: func(seed int64, i int) opSpec {
			return opSpec{Kind: mixKind(seed, i), Seed: derive(seed, "serve-op", i)}
		},
		warm: func(seed int64) []opSpec {
			return []opSpec{
				{Kind: "solve", Seed: derive(seed, "warm", 0)},
				{Kind: "refine", Seed: derive(seed, "warm", 1)},
				{Kind: "count", Seed: derive(seed, "warm", 2)},
			}
		},
		setup: func(b *bench, w *workload, tr *trace, root int) (*fixture, error) {
			return setupServe(b, w, tr, root, false)
		},
	},
	{
		name: "search-n1e5",
		why: "Solver.Search by 1 closed-loop caller at n=1e5: the only path through the ε-invariant search cache " +
			"and its probes, which no serve workload reaches",
		clients: 1, limit: time.Minute,
		op:   func(seed int64, i int) opSpec { return opSpec{Kind: "search", Seed: derive(seed, "search", i)} },
		warm: func(seed int64) []opSpec { return []opSpec{{Kind: "search", Seed: derive(seed, "warm", 0)}} },
		setup: func(b *bench, w *workload, tr *trace, root int) (*fixture, error) {
			return setupLib(b, w, tr, root, shapeN1e5)
		},
	},
	{
		name: "solve-n1e6",
		why: "Solver.Solve by 1 closed-loop caller on the n=1e6 snapshot: the replay kernel at the size " +
			"where engines diverge, with no server, refine or count",
		clients: 1, limit: time.Minute,
		op:   func(seed int64, i int) opSpec { return opSpec{Kind: "solve", Seed: derive(seed, "solve", i)} },
		warm: func(seed int64) []opSpec { return []opSpec{{Kind: "solve", Seed: derive(seed, "warm", 0)}} },
		setup: func(b *bench, w *workload, tr *trace, root int) (*fixture, error) {
			return setupLib(b, w, tr, root, shapeN1e6)
		},
	},
}

// opList returns ops [from, from+n) of w, with due times relative to the
// first one on an open-loop workload: the op list, or the schedule.
func opList(w *workload, seed int64, from, n int) []opSpec {
	ops := make([]opSpec, n)
	for k := range ops {
		ops[k] = w.op(seed, from+k)
		if w.rate > 0 {
			ops[k].DueNS = int64(float64(k) * float64(time.Second) / w.rate)
		}
	}
	return ops
}

func cachedKey(seed int64, k int) opSpec {
	if k < cachedSolves {
		return opSpec{Kind: "solve", Seed: derive(seed, "cached-solve", k), Key: k}
	}
	return opSpec{Kind: "count", Seed: derive(seed, "cached-count", k), Key: k}
}

// mixKind is the kind of serve-solve op i: each block of six ops holds
// solve four times, refine once and count once, in a seeded order.
func mixKind(seed int64, i int) string {
	block := [6]string{"solve", "solve", "solve", "solve", "refine", "count"}
	x := uint64(derive(seed, "mix", i/len(block)))
	for k := len(block) - 1; k > 0; k-- {
		x = splitmix(x)
		j := int(x % uint64(k+1))
		block[k], block[j] = block[j], block[k]
	}
	return block[i%len(block)]
}

// derive returns the i-th non-negative seed of the named stream under
// the run seed.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return int64(splitmix(uint64(seed)^splitmix(h.Sum64()+uint64(i))) >> 1)
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
