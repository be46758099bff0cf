package refine

import (
	"context"
	"sort"

	"nearclique/internal/bitset"
	"nearclique/internal/congest"
	"nearclique/internal/graph"
)

// refineSeedSalt keys the post-pass RNG stream away from every protocol
// stream: the protocol draws from counter streams keyed by (seed, node),
// the refiner from (seed ⊕ salt, candidate rank), so refinement can never
// consume or collide with a coin the base run flipped.
const refineSeedSalt = 0x5ef1a3c9d2b47e61

// Refined is the polished counterpart of one committed candidate.
type Refined struct {
	// Label is the base candidate's protocol label.
	Label int64
	// SeedVertex is the highest-core member whose closed neighborhood
	// seeded the grow pool (−1 for an empty base candidate).
	SeedVertex int
	// Members is the refined set, sorted ascending. Its density is never
	// below the base candidate's: when no move improves the base, Members
	// is the base set unchanged.
	Members []int
	// Density is the Definition-1 density of Members.
	Density float64
	// BaseSize and BaseDensity describe the candidate as the engine
	// committed it, so base-vs-refined quality is readable off one record.
	BaseSize    int
	BaseDensity float64
	// Moves is the number of local-search moves applied (adds + peels +
	// swaps), whether or not they survived into Members.
	Moves int
	// Improved reports whether Members beats the base candidate: density
	// at least the base's with strictly greater size or density.
	Improved bool
}

// Refiner refines the candidates of one graph. It lazily computes the
// graph's k-core decomposition on first use and shares it across
// candidates; a Refiner is single-run scratch, not safe for concurrent
// use (the Solver builds one per solve).
type Refiner struct {
	g     *graph.Graph
	cores []int32
}

// New returns a Refiner over g.
func New(g *graph.Graph) *Refiner { return &Refiner{g: g} }

// seedVertex returns the member with the highest core number; members
// are sorted ascending, so "first maximum" is the smallest-index
// tie-break. r.cores must be computed.
func (r *Refiner) seedVertex(members []int) int {
	v := members[0]
	for _, u := range members {
		if r.cores[u] > r.cores[v] {
			v = u
		}
	}
	return v
}

// Candidate refines one committed candidate. members must be sorted
// ascending (as core.Candidate.Members are); rank is the candidate's
// index in the run's sorted candidate list and keys its RNG stream, so a
// candidate's refinement depends only on (graph, members, spec, runEps,
// seed, rank) — never on engine or scheduling. The context is observed
// at every move boundary (the post-pass runs inside serving deadlines);
// on cancellation the bare context error is returned and the caller
// discards any partial refinement.
func (r *Refiner) Candidate(ctx context.Context, label int64, members []int, spec Spec, runEps float64, seed int64, rank int) (Refined, error) {
	g := r.g
	out := Refined{
		Label:       label,
		SeedVertex:  -1,
		Members:     append([]int(nil), members...),
		BaseSize:    len(members),
		BaseDensity: g.DensityOf(members),
	}
	out.Density = out.BaseDensity
	if len(members) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return out, err // before the O(n+m) core pass, the priciest step
	}
	if r.cores == nil {
		r.cores = g.CoreNumbers()
	}

	// Seed vertex: the member with the highest core number.
	v := r.seedVertex(members)
	out.SeedVertex = v

	// The feasibility floor: the objective threshold, raised to the base
	// density so refinement never trades density down — the post-pass
	// only ever densifies or grows at equal-or-better density.
	threshold := spec.threshold(runEps)
	floor := threshold
	if out.BaseDensity > floor {
		floor = out.BaseDensity
	}

	// Grow pool: the base members plus the closed neighborhood of the
	// seed vertex, deterministically subsampled past the cap (base
	// members always stay; the stream draw is counter-based, so the
	// subsample is identical on every engine and worker count).
	n := g.N()
	inPool := bitset.New(n)
	pool := make([]int, 0, len(members)+g.Degree(v)+1)
	for _, u := range members {
		inPool.Add(u)
		pool = append(pool, u)
	}
	extras := make([]int, 0, g.Degree(v)+1)
	if !inPool.Contains(v) {
		extras = append(extras, v)
	}
	for _, w := range g.Neighbors(v) {
		if !inPool.Contains(int(w)) {
			extras = append(extras, int(w))
		}
	}
	if pc := spec.poolCap(); len(pool)+len(extras) > pc {
		keep := pc - len(pool)
		if keep < 0 {
			keep = 0
		}
		rng := congest.NewNodeRand(seed^refineSeedSalt, int64(rank))
		// Partial Fisher–Yates: the first keep slots become a uniform
		// sample; re-sorting restores the deterministic scan order.
		for i := 0; i < keep; i++ {
			j := i + rng.Intn(len(extras)-i)
			extras[i], extras[j] = extras[j], extras[i]
		}
		extras = extras[:keep]
		sort.Ints(extras)
	}
	for _, u := range extras {
		inPool.Add(u)
		pool = append(pool, u)
	}
	sort.Ints(pool)

	// Incremental state: inW is the working set, degIn[u] = |Γ(u) ∩ W|
	// for every pool node, edges = |E(W)|. Every move updates them in
	// O(deg) via the shared CSR arena — no density is ever recomputed
	// from scratch.
	inW := bitset.New(n)
	for _, u := range members {
		inW.Add(u)
	}
	degIn := make(map[int]int, len(pool))
	edges := 0
	for _, w := range members {
		for _, nb := range g.Neighbors(w) {
			if inPool.Contains(int(nb)) {
				degIn[int(nb)]++
			}
			if inW.Contains(int(nb)) {
				edges++
			}
		}
	}
	edges /= 2
	k := len(members)

	density := func(k, edges int) float64 {
		if k <= 1 {
			return 1
		}
		return float64(2*edges) / float64(k*(k-1))
	}

	// Best-so-far: starts at the base candidate; a working set replaces
	// it only when its density is at least the base's (the never-decrease
	// guarantee) and it scores higher — feasibility first, then size,
	// then density.
	bestSize, bestDensity := out.BaseSize, out.BaseDensity
	bestFeasible := bestDensity >= threshold-1e-9
	record := func() {
		d := density(k, edges)
		if d < out.BaseDensity {
			return
		}
		feas := d >= threshold-1e-9
		better := false
		switch {
		case feas != bestFeasible:
			better = feas
		case k != bestSize:
			better = k > bestSize
		default:
			better = d > bestDensity
		}
		if better {
			bestSize, bestDensity, bestFeasible = k, d, feas
			out.Members = inW.Indices()
			out.Density = d
		}
	}

	budget := spec.maxMoves()

	// Peel phase: while the working set is below the floor, drop the
	// member with the fewest inside neighbors (tie: smallest index).
	for k > 1 && density(k, edges) < floor-1e-9 && out.Moves < budget {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		w, dw := -1, 0
		for _, u := range pool {
			if inW.Contains(u) && (w < 0 || degIn[u] < dw) {
				w, dw = u, degIn[u]
			}
		}
		if w < 0 {
			break
		}
		inW.Remove(w)
		k--
		edges -= dw
		for _, nb := range g.Neighbors(w) {
			if inPool.Contains(int(nb)) {
				degIn[int(nb)]--
			}
		}
		out.Moves++
		record()
	}

	// Grow/swap phase: grow with the best outsider while the floor
	// holds; when growth stalls, swap the worst member for a strictly
	// better outsider, which re-opens growth.
	for out.Moves < budget {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		u, du := -1, -1
		for _, c := range pool {
			if !inW.Contains(c) && degIn[c] > du {
				u, du = c, degIn[c]
			}
		}
		if u >= 0 && density(k+1, edges+du) >= floor-1e-9 {
			inW.Add(u)
			k++
			edges += du
			for _, nb := range g.Neighbors(u) {
				if inPool.Contains(int(nb)) {
					degIn[int(nb)]++
				}
			}
			out.Moves++
			record()
			continue
		}
		if u < 0 || k <= 1 {
			break
		}
		w, dw := -1, 0
		for _, c := range pool {
			if inW.Contains(c) && (w < 0 || degIn[c] < dw) {
				w, dw = c, degIn[c]
			}
		}
		adj := 0
		if w >= 0 && g.HasEdge(u, w) {
			adj = 1
		}
		if w < 0 || du-adj-dw <= 0 {
			break // no strictly edge-increasing swap remains
		}
		inW.Remove(w)
		edges -= dw
		for _, nb := range g.Neighbors(w) {
			if inPool.Contains(int(nb)) {
				degIn[int(nb)]--
			}
		}
		inW.Add(u)
		edges += degIn[u]
		for _, nb := range g.Neighbors(u) {
			if inPool.Contains(int(nb)) {
				degIn[int(nb)]++
			}
		}
		out.Moves++
		record()
	}

	out.Improved = out.Density >= out.BaseDensity &&
		(len(out.Members) > out.BaseSize || out.Density > out.BaseDensity)
	return out, nil
}
