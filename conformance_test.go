package nearclique_test

// Paper-metrics conformance suite: the paper's guarantees pinned as
// executable assertions on planted-clique generators, table-driven across
// the seq/sharded/async engines and the dense/sparse construction paths.
// For every engine and seed the committed output must be an ε-near clique
// of at least the guaranteed size with planted-set recovery no worse than
// the seeded baseline, and the refinement post-pass must never decrease
// density while preserving the base run bit for bit.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nearclique"
	"nearclique/internal/expt"
	"nearclique/internal/gen"
)

// conformanceCase is one planted-clique workload with its pinned
// guarantees. MinRecovery and MinSizeFrac are the seeded baselines: the
// seed-state quality this suite refuses to regress below.
type conformanceCase struct {
	name        string
	planted     gen.Planted
	sample      float64 // expected sample size s = p·n
	eps         float64
	minSizeFrac float64 // guaranteed size as a fraction of the planted set
	minRecovery float64 // fraction of planted nodes the best candidate must contain
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{
			// Dense construction path: a strict 180-clique (δ = 0.3) over
			// a G(n, 0.03) background.
			name:        "dense/planted-clique",
			planted:     gen.PlantedClique(600, 180, 0.03, 5),
			sample:      6,
			eps:         0.25,
			minSizeFrac: 0.95,
			minRecovery: 0.95,
		},
		{
			// Sparse construction path: a strict 200-clique (δ ≈ 0.13) over
			// an average-degree-6 background — the Corollary 2.3 regime,
			// sampled at s = 4n/size.
			name:        "sparse/planted-clique",
			planted:     gen.SparsePlantedNearClique(1500, 200, 0, 6, 7),
			sample:      30,
			eps:         0.25,
			minSizeFrac: 0.95,
			minRecovery: 0.95,
		},
	}
}

var conformanceEngines = []nearclique.Engine{
	nearclique.EngineSequential,
	nearclique.EngineSharded,
	nearclique.EngineAsync,
}

// refinedTranscript canonicalizes the refinement output for cross-engine
// comparison.
func refinedTranscript(res *nearclique.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec=%s best=%d/%.9f moves=%d\n",
		res.RefineSpec, res.Metrics.RefinedSize, res.Metrics.RefinedDensity,
		res.Metrics.RefineMoves)
	for _, r := range res.Refined {
		fmt.Fprintf(&b, "label=%d seed=%d members=%v density=%.9f moves=%d improved=%v\n",
			r.Label, r.SeedVertex, r.Members, r.Density, r.Moves, r.Improved)
	}
	return b.String()
}

// baseTranscript canonicalizes the protocol output (labels + candidates),
// deliberately excluding metrics so engines with different cost profiles
// can be compared.
func baseTranscript(res *nearclique.Result, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "labels=%v samples=%v\n", labelsOf(res, n), res.SampleSizes)
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, "cand label=%d members=%v density=%.9f\n", c.Label, c.Members, c.Density)
	}
	return b.String()
}

func recovery(planted, members []int) float64 {
	in := make(map[int]bool, len(planted))
	for _, v := range planted {
		in[v] = true
	}
	hit := 0
	for _, v := range members {
		if in[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(planted))
}

func TestConformancePlantedCliqueGuarantees(t *testing.T) {
	refineSpec, err := nearclique.ParseRefineSpec("near")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range conformanceCases() {
		for _, seed := range []int64{1, 3} {
			var wantBase, wantRefined string
			for _, eng := range conformanceEngines {
				name := fmt.Sprintf("%s/%v/seed%d", tc.name, eng, seed)

				base := solveConformance(t, name, tc, eng, seed, nil)
				refined := solveConformance(t, name, tc, eng, seed, &refineSpec)

				// 1. The guaranteed output: an ε-near clique of the
				// guaranteed size whose planted recovery matches the
				// seeded baseline.
				best := base.Best()
				if best == nil {
					t.Fatalf("%s: no committed candidate", name)
				}
				if !nearclique.IsNearClique(tc.planted.Graph, best.Members, tc.eps) {
					t.Errorf("%s: best candidate is not an ε=%v-near clique (density %v)",
						name, tc.eps, best.Density)
				}
				if min := int(tc.minSizeFrac * float64(len(tc.planted.D))); len(best.Members) < min {
					t.Errorf("%s: best size %d below the guaranteed %d", name, len(best.Members), min)
				}
				if rec := recovery(tc.planted.D, best.Members); rec < tc.minRecovery {
					t.Errorf("%s: recovery %.4f below the seeded baseline %.2f", name, rec, tc.minRecovery)
				}

				// 2. Refinement is a pure post-pass: the refined run's
				// protocol output is bit-identical to the unrefined one.
				if a, b := baseTranscript(base, tc.planted.Graph.N()), baseTranscript(refined, tc.planted.Graph.N()); a != b {
					t.Errorf("%s: WithRefine changed the base transcript:\n%s\nvs\n%s", name, a, b)
				}

				// 3. Refinement never decreases density, candidate by
				// candidate, and the refined best never shrinks.
				if len(refined.Refined) != len(refined.Candidates) {
					t.Fatalf("%s: %d refined records for %d candidates",
						name, len(refined.Refined), len(refined.Candidates))
				}
				for i, r := range refined.Refined {
					c := refined.Candidates[i]
					if r.Density < c.Density {
						t.Errorf("%s: candidate %d density decreased %v → %v", name, i, c.Density, r.Density)
					}
					if !nearclique.IsNearClique(tc.planted.Graph, r.Members, tc.eps) {
						t.Errorf("%s: refined candidate %d left the ε-near-clique family", name, i)
					}
				}
				if refined.Metrics.RefinedSize < len(best.Members) {
					t.Errorf("%s: refined best size %d below base best %d",
						name, refined.Metrics.RefinedSize, len(best.Members))
				}
				if rec := bestRefinedRecovery(tc.planted.D, refined); rec < tc.minRecovery {
					t.Errorf("%s: refined recovery %.4f below the seeded baseline %.2f", name, rec, tc.minRecovery)
				}

				// 4. Engine-independence: base and refined output are
				// bit-identical across all three engines.
				gotBase, gotRefined := baseTranscript(base, tc.planted.Graph.N()), refinedTranscript(refined)
				if wantBase == "" {
					wantBase, wantRefined = gotBase, gotRefined
				} else {
					if gotBase != wantBase {
						t.Errorf("%s: base transcript diverged across engines", name)
					}
					if gotRefined != wantRefined {
						t.Errorf("%s: refined transcript diverged across engines:\n%s\nvs\n%s",
							name, gotRefined, wantRefined)
					}
				}
			}
		}
	}
}

// TestConformanceRefinedBitIdenticalAcrossGOMAXPROCS: the refinement
// post-pass extends the determinism contract — refined output must not
// depend on worker scheduling any more than the base run does.
func TestConformanceRefinedBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	refineSpec, err := nearclique.ParseRefineSpec("near")
	if err != nil {
		t.Fatal(err)
	}
	tc := conformanceCases()[0]
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res := solveConformance(t, fmt.Sprintf("procs%d", procs), tc,
			nearclique.EngineSharded, 3, &refineSpec)
		got := baseTranscript(res, tc.planted.Graph.N()) + refinedTranscript(res)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("refined transcript diverged at GOMAXPROCS=%d", procs)
		}
	}
}

// TestConformanceBatchMatchesSolo: refined results through SolveBatch are
// exactly the per-graph Solve results — batching never changes answers.
func TestConformanceBatchMatchesSolo(t *testing.T) {
	refineSpec, err := nearclique.ParseRefineSpec("near")
	if err != nil {
		t.Fatal(err)
	}
	cases := conformanceCases()
	graphs := []*nearclique.Graph{cases[0].planted.Graph, cases[1].planted.Graph}
	s, err := nearclique.New(
		nearclique.WithEpsilon(0.25),
		nearclique.WithExpectedSample(cases[0].sample),
		nearclique.WithSeed(3),
		nearclique.WithRefine(refineSpec),
		nearclique.WithBatchWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.SolveBatch(context.Background(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range graphs {
		solo, err := s.Solve(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Refined, batch[i].Refined) {
			t.Fatalf("batch item %d refined output differs from solo Solve", i)
		}
	}
}

// TestConformanceSearchRefines: every documented entry point honors
// WithRefine — Search's winning probe is refined like a Solve result.
func TestConformanceSearchRefines(t *testing.T) {
	tc := conformanceCases()[0]
	spec, err := nearclique.ParseRefineSpec("near")
	if err != nil {
		t.Fatal(err)
	}
	s, err := nearclique.New(
		nearclique.WithExpectedSample(tc.sample),
		nearclique.WithSeed(3),
		nearclique.WithSearchSteps(4),
		nearclique.WithRefine(spec),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := s.Search(context.Background(), tc.planted.Graph, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RefineSpec != "near" {
		t.Fatalf("Search result RefineSpec %q, want \"near\"", res.RefineSpec)
	}
	if len(res.Refined) != len(res.Candidates) {
		t.Fatalf("%d refined records for %d candidates", len(res.Refined), len(res.Candidates))
	}
	for i, r := range res.Refined {
		if r.Density < res.Candidates[i].Density {
			t.Fatalf("candidate %d density decreased %v → %v", i, res.Candidates[i].Density, r.Density)
		}
	}
}

// TestConformanceRefineImprovesPlantedSeeds: on a strict 300-clique
// planted over an average-degree-10 background at n=5000, the refinement
// post-pass must lift the best candidate on nearly every seed. Refined[0]
// is the refinement of the base best candidate (the records are
// index-aligned with the bit-identical candidate list), so the pairing
// is exact. Mean refined size, density and planted-set recovery must each
// be at least the base's, and at least 90% of seeds must improve (keep
// the base density while growing in size or density); a seed with no
// candidate counts against that share.
func TestConformanceRefineImprovesPlantedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5000 solves in -short mode")
	}
	const n, size, avgDeg, seeds = 5000, 300, 10.0, 3
	spec, err := nearclique.ParseRefineSpec("near")
	if err != nil {
		t.Fatal(err)
	}
	improved, counted := 0, 0
	var baseSize, refSize, baseDen, refDen, baseRec, refRec float64
	for i := 0; i < seeds; i++ {
		s := int64(1 + i)
		inst := gen.SparsePlantedNearClique(n, size, 0, avgDeg, s)
		common := []nearclique.Option{
			nearclique.WithEpsilon(expt.ScaleEps),
			nearclique.WithExpectedSample(4 * float64(n) / float64(size)),
			nearclique.WithMinSize(size / 4),
			nearclique.WithSeed(s + 1),
		}
		baseSolver, err := nearclique.New(common...)
		if err != nil {
			t.Fatal(err)
		}
		refSolver, err := nearclique.New(append(common[:len(common):len(common)], nearclique.WithRefine(spec))...)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := baseSolver.Solve(context.Background(), inst.Graph)
		if err != nil {
			t.Fatalf("seed %d: base solve: %v", s, err)
		}
		refRes, err := refSolver.Solve(context.Background(), inst.Graph)
		if err != nil {
			t.Fatalf("seed %d: refined solve: %v", s, err)
		}
		best := baseRes.Best()
		if best == nil || len(refRes.Refined) == 0 {
			continue
		}
		ref := &refRes.Refined[0]
		counted++
		baseSize += float64(len(best.Members))
		refSize += float64(len(ref.Members))
		baseDen += best.Density
		refDen += ref.Density
		baseRec += recovery(inst.D, best.Members)
		refRec += recovery(inst.D, ref.Members)
		if ref.Density >= best.Density &&
			(len(ref.Members) > len(best.Members) || ref.Density > best.Density) {
			improved++
		}
	}
	if counted == 0 {
		t.Fatal("no seed committed a candidate")
	}
	if refDen < baseDen {
		t.Errorf("mean refined density %.4f below base %.4f", refDen/float64(counted), baseDen/float64(counted))
	}
	if refSize < baseSize {
		t.Errorf("mean refined size %.2f below base %.2f", refSize/float64(counted), baseSize/float64(counted))
	}
	if refRec < baseRec {
		t.Errorf("mean refined recovery %.4f below base %.4f", refRec/float64(counted), baseRec/float64(counted))
	}
	if pct := 100 * float64(improved) / seeds; pct < 90 {
		t.Errorf("refinement improved %d of %d seeds (%.0f%%), want ≥ 90%%", improved, seeds, pct)
	}
}

func bestRefinedRecovery(planted []int, res *nearclique.Result) float64 {
	best := -1
	for i, r := range res.Refined {
		if best < 0 || len(r.Members) > len(res.Refined[best].Members) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return recovery(planted, res.Refined[best].Members)
}

func solveConformance(t *testing.T, name string, tc conformanceCase, eng nearclique.Engine, seed int64, spec *nearclique.RefineSpec) *nearclique.Result {
	t.Helper()
	opts := []nearclique.Option{
		nearclique.WithEngine(eng),
		nearclique.WithEpsilon(tc.eps),
		nearclique.WithExpectedSample(tc.sample),
		nearclique.WithSeed(seed),
		nearclique.WithMinSize(len(tc.planted.D) / 4),
	}
	if spec != nil {
		opts = append(opts, nearclique.WithRefine(*spec))
	}
	s, err := nearclique.New(opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := s.Solve(context.Background(), tc.planted.Graph)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}
