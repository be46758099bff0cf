// Package refine implements the deterministic local-search refinement
// post-pass: given the near-clique candidates an engine committed, it
// greedily polishes each one — neighborhood-seeded candidate growth (the
// grow pool is seeded from the closed neighborhood of the candidate's
// highest-core vertex, à la Konar & Sidiropoulos's quasi-clique mining
// from vertex neighborhoods), peel and swap moves scored by edge-density
// deltas maintained incrementally against the shared CSR arena, and a
// configurable objective (edge density ≥ 1−ε, or a γ-quasi-clique
// threshold).
//
// Refinement is a pure post-pass: the base run's transcript is never
// touched, and the search itself is deterministic — move selection uses
// fixed tie-breaks, and the only randomness (subsampling an oversized
// grow pool) draws from a counter-based stream keyed by (run seed,
// candidate rank), so refined output is bit-identical across engines,
// GOMAXPROCS settings, and batch concurrency, extending the repo's
// determinism contract to the refined axis.
package refine

import (
	"fmt"
	"strconv"
	"strings"
)

// Objective selects what the local search maximizes.
type Objective uint8

const (
	// ObjectiveNearClique maximizes candidate size subject to Definition-1
	// edge density ≥ 1−ε (the paper's near-clique measure).
	ObjectiveNearClique Objective = iota
	// ObjectiveQuasiClique maximizes candidate size subject to edge
	// density ≥ γ — the γ-quasi-clique objective of the neighborhood
	// mining literature.
	ObjectiveQuasiClique
)

func (o Objective) String() string {
	switch o {
	case ObjectiveNearClique:
		return "near"
	case ObjectiveQuasiClique:
		return "quasi"
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// Default and hard-cap search budgets. MaxMoves bounds add/peel/swap
// moves per candidate; PoolCap bounds the grow pool (candidate ∪ the
// seed vertex's closed neighborhood) so one hub vertex cannot make a
// refinement pass super-linear. The hard caps bound what a request may
// ask for at all — the post-pass runs inside serving deadlines, so an
// absurd client-supplied budget must fail eager validation, not eat a
// worker (the same philosophy as core.HardMaxComponentSize).
const (
	DefaultMaxMoves = 512
	DefaultPoolCap  = 4096
	HardMaxMoves    = 1 << 20
	HardMaxPool     = 1 << 20
)

// Spec configures the refinement post-pass. The zero value is a valid
// near-clique spec that inherits the run's ε (Epsilon 0 means "use the
// solve's ε") and the default budgets.
type Spec struct {
	// Objective selects the feasibility measure.
	Objective Objective
	// Epsilon is the near-clique parameter for ObjectiveNearClique; 0
	// inherits the ε of the run being refined.
	Epsilon float64
	// Gamma is the density threshold for ObjectiveQuasiClique.
	Gamma float64
	// MaxMoves bounds local-search moves per candidate (0 = default).
	MaxMoves int
	// PoolCap bounds the grow pool per candidate (0 = default). Pools
	// beyond the cap are subsampled deterministically from the post-pass
	// RNG stream.
	PoolCap int
}

// Validate checks the spec eagerly, mirroring the Solver's
// fail-at-construction option style.
func (s Spec) Validate() error {
	switch s.Objective {
	case ObjectiveNearClique:
		if !(s.Epsilon >= 0 && s.Epsilon < 0.5) { // NaN fails both
			return fmt.Errorf("refine: Epsilon %v outside [0, 0.5) (0 inherits the run's ε)", s.Epsilon)
		}
		if s.Gamma != 0 {
			return fmt.Errorf("refine: Gamma %v set on the near-clique objective", s.Gamma)
		}
	case ObjectiveQuasiClique:
		if !(s.Gamma > 0 && s.Gamma <= 1) {
			return fmt.Errorf("refine: Gamma %v outside (0, 1]", s.Gamma)
		}
		if s.Epsilon != 0 {
			return fmt.Errorf("refine: Epsilon %v set on the quasi-clique objective", s.Epsilon)
		}
	default:
		return fmt.Errorf("refine: invalid objective %d", uint8(s.Objective))
	}
	if s.MaxMoves < 0 || s.MaxMoves > HardMaxMoves {
		return fmt.Errorf("refine: MaxMoves %d outside [0, %d]", s.MaxMoves, HardMaxMoves)
	}
	if s.PoolCap < 0 || s.PoolCap > HardMaxPool {
		return fmt.Errorf("refine: PoolCap %d outside [0, %d]", s.PoolCap, HardMaxPool)
	}
	return nil
}

// String renders the canonical spec spelling — the exact string ParseSpec
// round-trips and the serving layer's cache key embeds, so two equivalent
// spellings ("quasi:0.60" vs "quasi:0.6", default budgets explicit vs
// omitted) canonicalize identically. Floats use strconv 'g' shortest
// round-trip formatting, matching the cache key's float canon.
func (s Spec) String() string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString(s.Objective.String())
	switch s.Objective {
	case ObjectiveNearClique:
		if s.Epsilon != 0 {
			b.WriteString(":" + f(s.Epsilon))
		}
	case ObjectiveQuasiClique:
		b.WriteString(":" + f(s.Gamma))
	}
	if s.MaxMoves != 0 && s.MaxMoves != DefaultMaxMoves {
		b.WriteString(",moves=" + strconv.Itoa(s.MaxMoves))
	}
	if s.PoolCap != 0 && s.PoolCap != DefaultPoolCap {
		b.WriteString(",pool=" + strconv.Itoa(s.PoolCap))
	}
	return b.String()
}

// ParseSpec parses the flag/request spelling of a refinement spec:
//
//	near             near-clique objective at the run's ε
//	near:0.2         near-clique objective at ε = 0.2
//	quasi:0.6        γ-quasi-clique objective at γ = 0.6
//	near,moves=128   optional budgets: ,moves=N and ,pool=N
//
// Explicitly spelled defaults (moves=512, pool=4096) canonicalize away,
// so every equivalent spelling yields the same Spec.String().
func ParseSpec(in string) (Spec, error) {
	var s Spec
	if in == "" {
		return s, fmt.Errorf("refine: empty spec (want near[:eps] or quasi:gamma)")
	}
	parts := strings.Split(in, ",")
	head := parts[0]
	obj, arg, hasArg := strings.Cut(head, ":")
	switch obj {
	case "near":
		s.Objective = ObjectiveNearClique
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return s, fmt.Errorf("refine: bad epsilon %q in spec %q", arg, in)
			}
			s.Epsilon = v
		}
	case "quasi":
		s.Objective = ObjectiveQuasiClique
		if !hasArg {
			return s, fmt.Errorf("refine: quasi objective needs a gamma (quasi:0.6) in spec %q", in)
		}
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return s, fmt.Errorf("refine: bad gamma %q in spec %q", arg, in)
		}
		s.Gamma = v
	default:
		return s, fmt.Errorf("refine: unknown objective %q (want near or quasi) in spec %q", obj, in)
	}
	for _, p := range parts[1:] {
		key, val, ok := strings.Cut(p, "=")
		if !ok {
			return s, fmt.Errorf("refine: malformed option %q in spec %q", p, in)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return s, fmt.Errorf("refine: bad value %q for option %q in spec %q", val, key, in)
		}
		switch key {
		case "moves":
			s.MaxMoves = v
		case "pool":
			s.PoolCap = v
		default:
			return s, fmt.Errorf("refine: unknown option %q in spec %q", key, in)
		}
	}
	// Canonicalize explicitly spelled defaults so equivalent spellings
	// share one canonical string (and one cache entry).
	if s.MaxMoves == DefaultMaxMoves {
		s.MaxMoves = 0
	}
	if s.PoolCap == DefaultPoolCap {
		s.PoolCap = 0
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// threshold resolves the feasibility floor for a run at ε = runEps.
func (s Spec) threshold(runEps float64) float64 {
	if s.Objective == ObjectiveQuasiClique {
		return s.Gamma
	}
	eps := s.Epsilon
	if eps == 0 {
		eps = runEps
	}
	return 1 - eps
}

// maxMoves resolves the per-candidate move budget.
func (s Spec) maxMoves() int {
	if s.MaxMoves > 0 {
		return s.MaxMoves
	}
	return DefaultMaxMoves
}

// poolCap resolves the grow-pool cap.
func (s Spec) poolCap() int {
	if s.PoolCap > 0 {
		return s.PoolCap
	}
	return DefaultPoolCap
}
