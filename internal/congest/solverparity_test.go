package congest_test

// Engine-level Solver parity: the public Solver driving the synchronous
// simulator must reproduce core.FindContext's simulator metrics — rounds,
// frames, bits, per-phase breakdown — bit-for-bit, under SolveBatch
// concurrency too. This is the engine-facing half of the determinism
// suite; internal/core's parity tests cover the protocol outputs.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nearclique"
	"nearclique/internal/congest"
	"nearclique/internal/core"
	"nearclique/internal/gen"
)

// canonMetrics renders the complete simulator cost transcript.
func canonMetrics(m congest.Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d frames=%d bits=%d maxframe=%d\n",
		m.Rounds, m.Frames, m.Bits, m.MaxFrameBits)
	for _, ph := range m.Phases {
		fmt.Fprintf(&b, "phase %s: rounds=%d frames=%d bits=%d\n",
			ph.Name, ph.Rounds, ph.Frames, ph.Bits)
	}
	return b.String()
}

func TestSolverEngineMetricsMatchLegacyFind(t *testing.T) {
	ctx := context.Background()
	g := gen.PlantedNearClique(300, 90, 0.01, 0.03, 8).Graph
	ref, err := core.FindContext(ctx, g, core.Options{
		Epsilon: 0.25, ExpectedSample: 6, Seed: 4, Versions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := canonMetrics(ref.Metrics)
	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithEpsilon(0.25),
		nearclique.WithExpectedSample(6),
		nearclique.WithSeed(4),
		nearclique.WithVersions(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonMetrics(res.Metrics); got != want {
		t.Fatalf("Solver metrics diverge from core.FindContext:\n--- solver\n%s--- find\n%s", got, want)
	}
	// The same transcript must survive batch concurrency.
	batch, err := s.SolveBatch(ctx, []*nearclique.Graph{g, g, g, g})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if got := canonMetrics(r.Metrics); got != want {
			t.Fatalf("batch item %d metrics diverge:\n--- batch\n%s--- find\n%s", i, got, want)
		}
	}
}
