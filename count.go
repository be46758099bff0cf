package nearclique

import (
	"context"
	"fmt"

	"nearclique/internal/shadow"
)

// CountResult is a completed counting query: unbiased estimates of the
// k-clique count and the anchored (k,ε)-near-clique count, each with a
// Hoeffding error bound at the configured confidence. See the shadow
// package for the estimator and DESIGN.md §15 for the determinism
// contract — at a fixed seed the result is bit-identical across
// GOMAXPROCS and sequential vs. batched sampling.
type CountResult = shadow.Result

// MaxCliqueSize is the largest k WithCliqueSize accepts.
const MaxCliqueSize = shadow.MaxK

// maxCountSamples caps WithSamples: past 2^24 draws the Hoeffding
// half-width is already below 3·10⁻⁵·W and more sampling only burns CPU.
const maxCountSamples = 1 << 24

// WithCliqueSize sets the clique size k the Count/Sample path targets
// (default 4; 2 ≤ k ≤ MaxCliqueSize).
func WithCliqueSize(k int) Option {
	return func(c *config) error {
		if k < 2 || k > shadow.MaxK {
			return fmt.Errorf("nearclique: CliqueSize %d outside [2, %d]", k, shadow.MaxK)
		}
		c.cliqueSize = k
		return nil
	}
}

// WithSamples sets the number of estimator draws Count/Sample performs
// (default 4096). More samples tighten the reported error bounds at
// fixed confidence: the half-width shrinks as 1/√samples.
func WithSamples(n int) Option {
	return func(c *config) error {
		if n < 1 || n > maxCountSamples {
			return fmt.Errorf("nearclique: Samples %d outside [1, %d]", n, maxCountSamples)
		}
		c.samples = n
		return nil
	}
}

// WithConfidence sets the coverage 1−δ of Count's error bounds
// (default 0.99, exclusive range (0, 1)).
func WithConfidence(conf float64) Option {
	return func(c *config) error {
		if !(0 < conf && conf < 1) {
			return fmt.Errorf("nearclique: Confidence %v outside (0, 1)", conf)
		}
		c.confidence = conf
		return nil
	}
}

// countOptions resolves the solver configuration into shadow options.
// The solver's ε (WithEpsilon) doubles as the near-clique slack; seed,
// parallelism, and the flight recorder are shared with the solve path.
func (s *Solver) countOptions() (shadow.Options, error) {
	if s.cfg.engine != EngineAuto && s.cfg.engine != EngineShadow {
		return shadow.Options{}, fmt.Errorf(
			"nearclique: Count/Sample needs engine auto or shadow, not %s", s.cfg.engine)
	}
	k := s.cfg.cliqueSize
	if k == 0 {
		k = 4
	}
	return shadow.Options{
		K:           k,
		Epsilon:     s.cfg.opts.Epsilon,
		Samples:     s.cfg.samples,
		Confidence:  s.cfg.confidence,
		Seed:        s.cfg.opts.Seed,
		Parallelism: s.cfg.opts.Parallelism,
		Flight:      s.cfg.opts.Flight,
	}, nil
}

// Count estimates how many k-cliques and anchored (k,ε)-near-cliques g
// contains, by Turán-shadow sampling (EngineShadow; EngineAuto routes
// here too). An anchored (k,ε)-near-clique is a k-set missing at most
// ⌊ε·C(k,2)⌋ edges that contains at least one (k−1)-clique — the
// counting analogue of the paper's ε-near-clique, anchored so the
// estimator touches only structures reachable from sampled cliques.
//
// The context cancels cooperatively during both shadow construction and
// sampling. Count performs no wall-clock reads; callers that want
// latency measure around it.
func (s *Solver) Count(ctx context.Context, g *Graph) (*CountResult, error) {
	o, err := s.countOptions()
	if err != nil {
		return nil, err
	}
	return shadow.Count(ctx, g, o)
}

// Sample draws WithSamples times from the k-clique distribution and
// returns the draws that landed on actual k-cliques, each sorted
// ascending — uniform over the k-cliques of g, sharing Count's coin
// streams so a Sample after a Count replays the same draws. Needs
// k ≥ 3 (2-cliques are just g's edge list).
func (s *Solver) Sample(ctx context.Context, g *Graph) ([][]int, error) {
	o, err := s.countOptions()
	if err != nil {
		return nil, err
	}
	return shadow.Sample(ctx, g, o)
}
