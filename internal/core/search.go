package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nearclique/internal/flight"
	"nearclique/internal/graph"
)

// This file implements an extension suggested by the paper's related work:
// Fischer & Newman [9] show that one can find (at enormous query cost) the
// smallest ε for which a graph has an ε-near clique of size ρn. Here we
// provide the practical analogue on top of DistNearClique: a monotone
// search over the detection parameter ε that returns the smallest ε at
// which the (boosted) algorithm reports a near-clique of the requested
// size. It is a heuristic estimator, not the tower-of-exponents exact
// procedure of [9] — experiment E10 (go run ./cmd/experiments -run E10)
// calibrates it.

// SearchOptions configures an ε search (SearchCachedContext or
// SearchWithRunner).
type SearchOptions struct {
	// Rho is the required set fraction: the returned ε is the smallest at
	// which a near-clique of ≥ Rho·n nodes is reported.
	Rho float64
	// ExpectedSample and Versions are passed to each probe run (versions
	// defaults to 4: individual probes must be reliable for the search to
	// be monotone in practice).
	ExpectedSample float64
	Versions       int
	// Steps is the number of bisection steps (default 8, giving ε
	// resolution (εMax−εMin)/2⁸).
	Steps int
	// EpsMin and EpsMax bound the search (defaults 0.02 and 0.45).
	EpsMin, EpsMax float64
	// Seed drives every probe.
	Seed int64
	// MaxComponentSize caps every probe's sampled components, as
	// Options.MaxComponentSize does for one run (0 means the default).
	MaxComponentSize int
	// Parallelism bounds the workers of each probe run, as
	// Options.Parallelism does for one run; 0 means GOMAXPROCS.
	Parallelism int
	// Flight, if non-nil, receives the probes' flight events: the shared
	// traversal's wave events on the cached path, or phase summaries from
	// every full probe run under SearchWithRunner. Purely observational.
	Flight *flight.Recorder
}

// normalized applies the documented defaults and bounds and derives the
// required set size ⌈Rho·n⌉ (floor 1).
func (so SearchOptions) normalized(n int) (SearchOptions, int, error) {
	if !(0 < so.Rho && so.Rho <= 1) {
		return so, 0, fmt.Errorf("core: Rho %v outside (0, 1]", so.Rho)
	}
	if so.Steps <= 0 {
		so.Steps = 8
	}
	if so.Versions <= 0 {
		so.Versions = 4
	}
	if so.ExpectedSample <= 0 {
		so.ExpectedSample = 6
	}
	if so.EpsMin <= 0 {
		so.EpsMin = 0.02
	}
	if so.EpsMax <= 0 || so.EpsMax >= 0.5 {
		so.EpsMax = 0.45
	}
	if so.EpsMin >= so.EpsMax {
		return so, 0, fmt.Errorf("core: EpsMin %v not below EpsMax %v", so.EpsMin, so.EpsMax)
	}
	// The 1e-9 slack is IsNearClique's: 0.1·30 evaluates to
	// 3.0000000000000004 and must still need 3.
	need := max(int(math.Ceil(so.Rho*float64(n)-1e-9)), 1)
	return so, need, nil
}

// ErrNotFound is returned by a search when even the largest probed ε
// reports no near-clique of the requested size.
var ErrNotFound = errors.New("core: no near-clique of the requested size found at any probed ε")

// SearchWithRunner is the ε-bisection driver with a pluggable probe
// executor: run performs one full probe run. The public Solver passes a
// simulator-backed closure when a simulator engine is selected, so Search
// costs — and measures — what the configured engine costs. With
// FindSequentialContext as run it is the per-probe reference the search
// parity suite checks SearchCachedContext against. Detection is
// engine-independent (the engines are bit-identical), so the returned ε
// never depends on the runner; only the Result's Metrics do. Every probe
// observes ctx, and a canceled probe aborts the whole search with an
// error wrapping the context error — cancellation is never conflated with
// a probe that merely found nothing.
func SearchWithRunner(ctx context.Context, g *graph.Graph, so SearchOptions, run func(context.Context, *graph.Graph, Options) (*Result, error)) (float64, *Result, error) {
	so, need, err := so.normalized(g.N())
	if err != nil {
		return 0, nil, err
	}

	probe := func(eps float64) (*Result, bool, error) {
		res, err := run(ctx, g, Options{
			Epsilon:          eps,
			ExpectedSample:   so.ExpectedSample,
			Seed:             so.Seed,
			Versions:         so.Versions,
			MinSize:          need,
			MaxComponentSize: so.MaxComponentSize,
			Parallelism:      so.Parallelism,
			Flight:           so.Flight,
		})
		if err != nil {
			// Cancellation aborts the search; any other probe failure
			// (e.g. an oversized component) counts as a non-detection.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, false, err
			}
			return nil, false, nil
		}
		// finalizeCandidates already stored each candidate's density.
		best := res.Best()
		return res, best != nil && len(best.Members) >= need &&
			best.Density >= 1-eps-1e-9, nil
	}

	// The detection event is monotone in ε in expectation (larger ε only
	// relaxes every threshold); bisect for its boundary.
	lo, hi := so.EpsMin, so.EpsMax
	res, ok, err := probe(hi)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, ErrNotFound
	}
	bestEps, bestRes := hi, res
	for step := 0; step < so.Steps; step++ {
		mid := (lo + hi) / 2
		r, ok, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			hi, bestEps, bestRes = mid, mid, r
		} else {
			lo = mid
		}
	}
	return bestEps, bestRes, nil
}
