package nearclique_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nearclique"
)

// progressGraph is a shared instance big enough that every engine takes
// multiple progress steps per run.
func progressGraph(t testing.TB) *nearclique.Graph {
	return genPlanted(t, 400, 120, 0.02, 0.05, 1).Graph
}

// TestProgressStopsAtCancellation closes the parity-suite gap from the
// Solver PR: when a WithProgress callback cancels the run, (1) the error
// wraps context.Canceled, (2) the partial Result stays valid — all-⊥
// labels, sample sizes sized to the configured versions, metrics no
// larger than a completed run's — and (3) no callback fires after Solve
// has returned, on any engine.
func TestProgressStopsAtCancellation(t *testing.T) {
	for _, engine := range []nearclique.Engine{
		nearclique.EngineSequential, nearclique.EngineSharded, nearclique.EngineAsync,
	} {
		t.Run(engine.String(), func(t *testing.T) {
			g := progressGraph(t)
			const versions = 3

			// Reference run: same configuration, no cancellation.
			full, err := mustSolver(t, engine, versions, nil).Solve(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			returned := false
			calls := 0
			lastStep := 0
			progress := func(p nearclique.Progress) {
				mu.Lock()
				defer mu.Unlock()
				if returned {
					t.Errorf("progress callback fired after Solve returned (phase %s)", p.Phase)
				}
				if p.Step <= lastStep {
					t.Errorf("steps not strictly increasing: %d after %d", p.Step, lastStep)
				}
				lastStep = p.Step
				if calls++; calls == 2 {
					cancel()
				}
			}

			res, err := mustSolver(t, engine, versions, progress).Solve(ctx, g)
			mu.Lock()
			returned = true
			got := calls
			mu.Unlock()

			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if got < 2 {
				t.Fatalf("only %d progress callbacks before cancellation", got)
			}
			if res == nil {
				t.Fatal("canceled run returned a nil Result")
			}
			for v := 0; v < g.N(); v++ {
				if l := res.Label(v); l != nearclique.NoLabel {
					t.Fatalf("node %d labeled %d in an aborted run", v, l)
				}
			}
			if len(res.SampleSizes) != versions {
				t.Fatalf("partial SampleSizes %v not sized to %d versions", res.SampleSizes, versions)
			}
			if res.Metrics.Rounds < 0 || res.Metrics.Rounds > full.Metrics.Rounds {
				t.Fatalf("partial rounds %d outside [0, %d]", res.Metrics.Rounds, full.Metrics.Rounds)
			}
			if res.Metrics.Frames > full.Metrics.Frames {
				t.Fatalf("partial frames %d exceed the full run's %d", res.Metrics.Frames, full.Metrics.Frames)
			}

			// One extra beat for any hypothetical stray goroutine to
			// trip the returned flag under -race.
			time.Sleep(5 * time.Millisecond)
		})
	}
}

// TestProgressExpiredDeadline pins the DeadlineExceeded half of the
// contract: an already-expired deadline surfaces as a wrapped
// context.DeadlineExceeded with a valid zero-progress partial result,
// and the progress callback never fires — before or after the return.
func TestProgressExpiredDeadline(t *testing.T) {
	g := progressGraph(t)
	for _, engine := range []nearclique.Engine{
		nearclique.EngineSequential, nearclique.EngineSharded, nearclique.EngineAsync,
	} {
		t.Run(engine.String(), func(t *testing.T) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			var mu sync.Mutex
			fired := false
			res, err := mustSolver(t, engine, 2, func(p nearclique.Progress) {
				mu.Lock()
				fired = true
				mu.Unlock()
			}).Solve(ctx, g)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if fired {
				t.Error("progress fired on a run that could never start a step")
			}
			if res == nil || len(res.Candidates) != 0 || len(res.SampleSizes) != 2 || res.Metrics.Rounds != 0 {
				t.Fatalf("expired-deadline partial result malformed: %+v", res)
			}
		})
	}
}

func mustSolver(t *testing.T, engine nearclique.Engine, versions int, progress func(nearclique.Progress)) *nearclique.Solver {
	t.Helper()
	opts := []nearclique.Option{
		nearclique.WithEngine(engine),
		nearclique.WithSeed(1),
		nearclique.WithVersions(versions),
	}
	if progress != nil {
		opts = append(opts, nearclique.WithProgress(progress))
	}
	s, err := nearclique.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
