package nearclique_test

// Sentinel-error contract: every failure mode is errors.Is-matchable
// against its exported sentinel, and cancellation surfaces as the
// standard context errors — never a bespoke one.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nearclique"
)

func TestErrRoundLimitIsWrapped(t *testing.T) {
	g := genPlanted(t, 200, 70, 0.01, 0.04, 3).Graph
	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithMaxRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), g)
	if !errors.Is(err, nearclique.ErrRoundLimit) {
		t.Fatalf("want wrapped ErrRoundLimit, got %v", err)
	}
	if res == nil || res.Metrics.Rounds == 0 {
		t.Fatal("round-limit abort lost the partial metrics")
	}
}

func TestErrComponentTooLargeIsWrapped(t *testing.T) {
	g := nearclique.Build(64, completeEdges(64))
	for _, engine := range []nearclique.Engine{nearclique.EngineSequential, nearclique.EngineSharded} {
		s, err := nearclique.New(
			nearclique.WithEngine(engine),
			nearclique.WithSamplingProbability(1), // everyone sampled: one giant component
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Solve(context.Background(), g)
		if !errors.Is(err, nearclique.ErrComponentTooLarge) {
			t.Fatalf("engine %v: want wrapped ErrComponentTooLarge, got %v", engine, err)
		}
	}
}

func TestErrNotFoundFromSearch(t *testing.T) {
	// A near-empty graph holds no large near-clique at any probed ε.
	g := nearclique.Build(60, [][2]int{{0, 1}, {2, 3}})
	s, err := nearclique.New(nearclique.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Search(context.Background(), g, 0.5)
	if !errors.Is(err, nearclique.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestErrInputTooLargeIsWrapped(t *testing.T) {
	_, err := nearclique.ReadGraph(strings.NewReader("n 999999999\n0 1\n"))
	if !errors.Is(err, nearclique.ErrInputTooLarge) {
		t.Fatalf("want wrapped ErrInputTooLarge, got %v", err)
	}
	_, err = nearclique.ReadGraph(strings.NewReader("0 888888888\n"))
	if !errors.Is(err, nearclique.ErrInputTooLarge) {
		t.Fatalf("oversized endpoint: want wrapped ErrInputTooLarge, got %v", err)
	}
	// Malformed — as opposed to oversized — inputs are NOT ErrInputTooLarge.
	_, err = nearclique.ReadGraph(strings.NewReader("zero one\n"))
	if err == nil || errors.Is(err, nearclique.ErrInputTooLarge) {
		t.Fatalf("malformed input misclassified: %v", err)
	}
}

func TestCancellationSurfacesAsContextErrors(t *testing.T) {
	g := genPlanted(t, 300, 90, 0.01, 0.04, 5).Graph
	for _, engine := range []nearclique.Engine{
		nearclique.EngineSequential, nearclique.EngineSharded, nearclique.EngineAsync,
	} {
		s, err := nearclique.New(nearclique.WithEngine(engine))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.Solve(ctx, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: want wrapped context.Canceled, got %v", engine, err)
		}
		dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
		if _, err := s.Solve(dctx, g); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("engine %v: want wrapped DeadlineExceeded, got %v", engine, err)
		}
		dcancel()
	}
}

func TestSearchCancellationIsNotErrNotFound(t *testing.T) {
	g := genPlanted(t, 300, 100, 0.01, 0.04, 6).Graph
	s, err := nearclique.New(nearclique.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = s.Search(ctx, g, 0.3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if errors.Is(err, nearclique.ErrNotFound) {
		t.Fatal("cancellation misreported as ErrNotFound")
	}
}

func TestSolveBatchCancellation(t *testing.T) {
	var graphs []*nearclique.Graph
	for seed := int64(0); seed < 6; seed++ {
		graphs = append(graphs, genPlanted(t, 200, 60, 0.01, 0.04, seed).Graph)
	}
	s, err := nearclique.New(nearclique.WithBatchWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.SolveBatch(ctx, graphs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

// TestWrappedSentinelsNeverCompareEqual pins the rationale behind the
// errwrap analyzer (DESIGN.md §12): every sentinel this module returns
// arrives wrapped with context (`%w`), so an == comparison against the
// bare sentinel is always false even when errors.Is matches. If this
// test ever fails, sentinels are being returned unwrapped and the
// analyzer's premise no longer holds.
func TestWrappedSentinelsNeverCompareEqual(t *testing.T) {
	g := genPlanted(t, 200, 70, 0.01, 0.04, 3).Graph
	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithMaxRounds(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), g)
	if !errors.Is(err, nearclique.ErrRoundLimit) {
		t.Fatalf("want wrapped ErrRoundLimit, got %v", err)
	}
	//nclint:allow errwrap -- this test demonstrates exactly why == must not be used
	if err == nearclique.ErrRoundLimit {
		t.Fatal("sentinel returned unwrapped: == matched, so the errwrap contract (always wrap with %w) is broken")
	}
	if !strings.Contains(err.Error(), nearclique.ErrRoundLimit.Error()) {
		t.Fatalf("wrapped error hides the sentinel text: %v", err)
	}
}

// completeEdges lists all pairs over n nodes.
func completeEdges(n int) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}
