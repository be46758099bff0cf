// Package core implements Algorithm DistNearClique of Brakerski &
// Patt-Shamir, "Distributed Discovery of Large Near-Cliques" (PODC 2009),
// both as a faithful CONGEST-model distributed protocol (Find) and as a
// centralized reference implementation that replays the identical coin
// flips and tie-breaks (FindSequential). Given a graph containing an
// ε³-near clique D of size ≥ δn, the algorithm outputs, with constant
// probability, a disjoint collection of near-cliques at least one of which
// is an O(ε/δ)-near clique of size (1−O(ε))|D| (Theorem 5.7).
//
// The distributed protocol follows the paper's three stages — sampling,
// exploration, decision — refined into thirteen quiescence-delimited
// phases; see DESIGN.md §3 for the step-by-step mapping.
package core

import (
	"errors"
	"fmt"
	"sort"

	"nearclique/internal/congest"
	"nearclique/internal/flight"
	"nearclique/internal/graph"
	"nearclique/internal/refine"
)

// Default bounds.
const (
	// DefaultMaxComponentSize caps |Si|: the exploration stage enumerates
	// all 2^|Si| subsets, so components beyond ~20 are infeasible in both
	// time and (per the paper) round complexity.
	DefaultMaxComponentSize = 16
	// HardMaxComponentSize is the absolute cap accepted via Options.
	HardMaxComponentSize = 22
)

// ErrComponentTooLarge is returned when a sampled component of G[S]
// exceeds MaxComponentSize (the exploration stage would need 2^|Si|
// subsets). Retry with a smaller sampling probability.
var ErrComponentTooLarge = errors.New("core: sampled component exceeds MaxComponentSize")

// ErrRoundLimit re-exports the deterministic time-bound wrapper error.
var ErrRoundLimit = congest.ErrRoundLimit

// Options configures a run of DistNearClique.
type Options struct {
	// Epsilon is the near-clique parameter ε. Must lie in (0, 0.5); the
	// paper's analysis assumes ε < 1/3.
	Epsilon float64
	// P is the sampling probability p. Exactly one of P and ExpectedSample
	// should be set; ExpectedSample = s sets P = s/n.
	P float64
	// ExpectedSample is the expected sample size s = p·n.
	ExpectedSample float64
	// Seed drives every coin flip. Identical seeds give identical runs,
	// distributed or sequential.
	Seed int64
	// Versions is the boosting parameter λ of Section 4.1: that many
	// independent sampling+exploration stages run before a single decision
	// stage. 0 or 1 means the base algorithm.
	Versions int
	// MinSize disqualifies committed candidates smaller than this (the
	// paper's footnote: small sets can be disqualified when a lower bound
	// on the dense subgraph is known). 0 disables.
	MinSize int
	// MaxRounds bounds total communication rounds (Section 4.1's
	// deterministic running-time wrapper); Find returns ErrRoundLimit with
	// all-⊥ outputs when exceeded. 0 disables.
	MaxRounds int
	// MaxComponentSize aborts the run when a component of G[S] exceeds
	// this size (see ErrComponentTooLarge). 0 means the default.
	MaxComponentSize int
	// Parallelism bounds simulator worker goroutines; 0 means GOMAXPROCS.
	Parallelism int
	// Engine selects the simulator executor (default: the sharded
	// flat-buffer engine; congest.EngineLegacy is the reference engine).
	// Outputs are bit-identical either way; only speed differs.
	Engine congest.Engine
	// Async runs the protocol on the asynchronous executor with an
	// α-synchronizer instead of the synchronous round loop (the paper's §2
	// remark via Awerbuch's synchronizer). Outputs are identical; the
	// synchronizer's message overhead appears in Metrics.Async*.
	Async bool
	// AsyncMaxDelay bounds per-message delay in virtual time units
	// (default 5); only meaningful with Async.
	AsyncMaxDelay int
	// Progress, if non-nil, is invoked synchronously after every completed
	// protocol step (Find: each quiescence-delimited phase; FindSequential:
	// each boosting version plus the decision stage). The callback must not
	// mutate the run; it exists for cancellation decisions, logging, and
	// serving-side liveness. It adds no work when nil and never changes
	// outputs.
	Progress func(Progress)
	// Flight, if non-nil, receives flight events as the run executes: the
	// CONGEST executors emit one event per round plus one summary per
	// phase, the sequential replay one event per traversal wave plus one
	// summary per boosting version and the decision stage. Purely observational —
	// attaching a recorder never changes outputs or transcripts.
	Flight *flight.Recorder
}

// Progress describes one completed protocol step, reported through
// Options.Progress. Step counts are engine-dependent: the distributed
// engines report every phase (Versions×13 exploration phases plus the two
// decision phases), the sequential reference reports one step per boosting
// version plus one for the decision stage.
type Progress struct {
	// Version is the boosting version the step belongs to, or -1 for the
	// decision-stage steps shared by all versions.
	Version int
	// Phase names the completed step (e.g. "v0/sample", "decide").
	Phase string
	// Step is the 1-based index of the completed step; Total is the number
	// of steps the run will execute.
	Step, Total int
	// Item identifies the run's graph within a batch: the public
	// SolveBatch sets it to the graph's index before forwarding the
	// event. Zero outside batch serving.
	Item int
	// Rounds and Frames are the cumulative simulator costs so far (zero on
	// the sequential path, which simulates no messages).
	Rounds, Frames int
}

func (o Options) validated(n int) (Options, error) {
	if o.Epsilon <= 0 || o.Epsilon >= 0.5 {
		return o, fmt.Errorf("core: Epsilon %v outside (0, 0.5)", o.Epsilon)
	}
	if o.P < 0 || o.P > 1 {
		return o, fmt.Errorf("core: P %v outside [0, 1]", o.P)
	}
	if o.P == 0 {
		if o.ExpectedSample <= 0 {
			return o, errors.New("core: one of P or ExpectedSample must be positive")
		}
		if n > 0 {
			o.P = o.ExpectedSample / float64(n)
			if o.P > 1 {
				o.P = 1
			}
		}
	}
	if o.Versions <= 0 {
		o.Versions = 1
	}
	if o.MaxComponentSize == 0 {
		o.MaxComponentSize = DefaultMaxComponentSize
	}
	if o.MaxComponentSize < 1 || o.MaxComponentSize > HardMaxComponentSize {
		return o, fmt.Errorf("core: MaxComponentSize %d outside [1, %d]",
			o.MaxComponentSize, HardMaxComponentSize)
	}
	return o, nil
}

// NoLabel is the ⊥ output: the node belongs to no reported near-clique.
const NoLabel = int64(-1)

// Candidate is one committed near-clique in the output.
type Candidate struct {
	// Label identifies the near-clique: the protocol ID of the root of the
	// spanning tree that produced it.
	Label int64
	// Version is the boosting version (0-based) that produced it.
	Version int
	// Members are the sorted node indices of the set (= T_ε(X(Si))).
	Members []int
	// SubsetX is the sample subset X(Si) ⊆ Si that generated the set.
	SubsetX []int
	// Density is the Definition-1 density of Members in the input graph.
	Density float64
}

// Result is the output of a run.
type Result struct {
	// Labels holds each node's output register: a candidate Label or
	// NoLabel (⊥). Nodes with equal labels are in the same near-clique.
	Labels []int64
	// Candidates are the committed near-cliques, largest first.
	Candidates []Candidate
	// SampleSizes is |S| per boosting version.
	SampleSizes []int
	// MaxComponent is the largest sampled component across versions.
	MaxComponent int
	// Metrics holds simulator costs (zero-valued for sequential runs).
	Metrics congest.Metrics
	// RefineSpec is the canonical refinement spec when the Solver ran its
	// post-pass ("" otherwise; the engines never refine — the base
	// transcript above is always the unrefined protocol output).
	RefineSpec string
	// Refined holds the refinement post-pass outputs, index-aligned with
	// Candidates; nil when refinement was not requested.
	Refined []refine.Refined
}

// Best returns the largest committed candidate, or nil if none.
func (r *Result) Best() *Candidate {
	if len(r.Candidates) == 0 {
		return nil
	}
	return &r.Candidates[0]
}

// finalizeCandidates sorts candidates (size desc, then label asc) and
// fills densities.
func finalizeCandidates(g *graph.Graph, cands []Candidate) []Candidate {
	for i := range cands {
		cands[i].Density = g.DensityOf(cands[i].Members)
	}
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].Members) != len(cands[j].Members) {
			return len(cands[i].Members) > len(cands[j].Members)
		}
		if cands[i].Label != cands[j].Label {
			return cands[i].Label < cands[j].Label
		}
		return cands[i].Version < cands[j].Version
	})
	return cands
}
