// Boosting and the deterministic time bound: the two wrappers of Section
// 4.1. A deliberately undersized sample gives each run only a modest
// success probability; running λ sampling+exploration versions with a
// single decision stage drives the failure rate down as (1−r)^λ, at a ~λ×
// round cost. A MaxRounds bound aborts runaway executions deterministically.
//
//	go run ./examples/boosting
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"nearclique"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "example:", err)
		os.Exit(1)
	}
}

// run holds the example logic; main wires it to stdout and the smoke
// tests drive it directly.
func run(w io.Writer) error {
	const (
		n    = 350
		eps  = 0.25
		seed = 17
	)
	dSize := n * 35 / 100 // δn with δ = 0.35
	inst, err := nearclique.Generate(nearclique.GenSpec{
		Family: "clique", N: n, Size: dSize, P: 0.02, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "planted clique: %d of %d nodes; deliberately small sample s=4\n\n", dSize, n)

	ctx := context.Background()
	fmt.Fprintf(w, "%-4s %-10s %-12s %-10s\n", "λ", "success", "rounds", "best size")
	for _, lambda := range []int{1, 2, 4, 8} {
		wins, rounds, bestSize := 0, 0, 0
		const trials = 5
		for t := 0; t < trials; t++ {
			solver, err := nearclique.New(
				nearclique.WithEngine(nearclique.EngineSharded),
				nearclique.WithEpsilon(eps),
				nearclique.WithExpectedSample(4),
				nearclique.WithSeed(seed+int64(t)*1000),
				nearclique.WithVersions(lambda),
			)
			if err != nil {
				return err
			}
			res, err := solver.Solve(ctx, inst.Graph)
			if err != nil {
				continue
			}
			rounds += res.Metrics.Rounds
			if best := res.Best(); best != nil && len(best.Members) >= dSize/2 {
				wins++
				if len(best.Members) > bestSize {
					bestSize = len(best.Members)
				}
			}
		}
		fmt.Fprintf(w, "%-4d %-10s %-12d %-10d\n",
			lambda, fmt.Sprintf("%d/%d", wins, trials), rounds/trials, bestSize)
	}

	// The deterministic running-time wrapper: bound the rounds and abort.
	fmt.Fprintln(w, "\ndeterministic time bound (Section 4.1):")
	bounded, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithEpsilon(eps),
		nearclique.WithExpectedSample(8),
		nearclique.WithSeed(seed),
		nearclique.WithMaxRounds(10), // far too few — the run aborts with all-⊥ outputs
	)
	if err != nil {
		return err
	}
	_, err = bounded.Solve(ctx, inst.Graph)
	if errors.Is(err, nearclique.ErrRoundLimit) {
		fmt.Fprintln(w, "  MaxRounds=10 exceeded as expected:", err)
	} else if err != nil {
		return err
	} else {
		fmt.Fprintln(w, "  unexpectedly finished within 10 rounds")
	}
	return nil
}
