// Asynchronous execution: Section 2 of the paper notes that "any
// synchronous algorithm can be executed in an asynchronous environment
// using a synchronizer [3]". This example runs the identical protocol on
// the event-driven asynchronous executor — random per-message delays plus
// Awerbuch's α-synchronizer — and shows that the outputs are bit-for-bit
// the same while the metrics expose the synchronizer's price: one ack per
// protocol message and Θ(|E|) safe-signals per round.
//
//	go run ./examples/asynchronous
package main

import (
	"context"
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
		n    = 300
		eps  = 0.25
		seed = 41
	)
	inst, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: n, Size: n / 3, EpsIn: eps * eps * eps, P: 0.04, Seed: seed,
	})
	if err != nil {
		return err
	}

	// Engines are a Solver option: the same configuration runs on the
	// synchronous sharded simulator or the asynchronous executor, and the
	// outputs are bit-for-bit identical.
	base := []nearclique.Option{
		nearclique.WithEpsilon(eps),
		nearclique.WithExpectedSample(6),
		nearclique.WithSeed(seed),
		nearclique.WithVersions(2),
	}
	ctx := context.Background()

	syncSolver, err := nearclique.New(append(base, nearclique.WithEngine(nearclique.EngineSharded))...)
	if err != nil {
		return err
	}
	syncRes, err := syncSolver.Solve(ctx, inst.Graph)
	if err != nil {
		return err
	}

	asyncSolver, err := nearclique.New(append(base,
		nearclique.WithEngine(nearclique.EngineAsync),
		nearclique.WithAsyncMaxDelay(7), // messages take 1..7 virtual time units
	)...)
	if err != nil {
		return err
	}
	asyncRes, err := asyncSolver.Solve(ctx, inst.Graph)
	if err != nil {
		return err
	}

	same := true
	for v := 0; v < inst.Graph.N(); v++ {
		if syncRes.Label(v) != asyncRes.Label(v) {
			same = false
			break
		}
	}
	fmt.Fprintf(w, "outputs identical under asynchrony: %v\n\n", same)

	sm, am := syncRes.Metrics, asyncRes.Metrics
	fmt.Fprintf(w, "%-28s %12s %12s\n", "", "synchronous", "asynchronous")
	fmt.Fprintf(w, "%-28s %12d %12d\n", "rounds (max node-round)", sm.Rounds, am.Rounds)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "protocol frames", sm.Frames, am.Frames)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "synchronizer acks", sm.AsyncAcks, am.AsyncAcks)
	fmt.Fprintf(w, "%-28s %12d %12d\n", "synchronizer safe-signals", sm.AsyncSafes, am.AsyncSafes)
	fmt.Fprintf(w, "%-28s %12s %12d\n", "virtual completion time", "-", am.AsyncVirtualTime)

	overhead := float64(am.Frames+am.AsyncAcks+am.AsyncSafes) / float64(am.Frames)
	fmt.Fprintf(w, "\nα-synchronizer message overhead: %.1f× the protocol's own traffic\n", overhead)
	if best := asyncRes.Best(); best != nil {
		fmt.Fprintf(w, "found: %d nodes at density %.3f (same set as the synchronous run)\n",
			len(best.Members), best.Density)
	}
	return nil
}
