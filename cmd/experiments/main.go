// Command experiments prints every experiment table: the
// empirical reproduction of the paper's theorems, lemmas, claims and
// corollaries (see DESIGN.md §4 for the E1..E10 index).
//
// Usage:
//
//	experiments                 # full suite (minutes)
//	experiments -quick          # reduced grids (seconds)
//	experiments -run E4,E5      # selected experiments
//	experiments -o results.md   # also write markdown to a file
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nearclique/internal/buildinfo"
	"nearclique/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sel     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		trials  = fs.Int("trials", 0, "trials per grid point (0 = per-experiment default)")
		seed    = fs.Int64("seed", 1, "base seed")
		quick   = fs.Bool("quick", false, "reduced grids for a fast pass")
		out     = fs.String("o", "", "also write the markdown report to this file")
		timeout = fs.Duration("timeout", 0, "stop (between experiments) once this much time has passed; the partial report is still written")
		version = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("experiments"))
		return 0
	}
	exps, err := expt.ByID(*sel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := expt.Config{Trials: *trials, Seed: *seed, Quick: *quick}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	truncated := false
	var report strings.Builder
	for _, e := range exps {
		// Experiments are the unit of cancellation here: a full table is
		// either present or absent, so partial reports stay well-formed.
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "experiments: stopping before %s: %v\n", e.ID, err)
			truncated = true
			break
		}
		start := time.Now()
		fmt.Fprintf(stderr, "running %s: %s...\n", e.ID, e.Title)
		tables := e.Run(cfg)
		fmt.Fprintf(stderr, "  done in %.1fs\n", time.Since(start).Seconds())
		for i := range tables {
			md := tables[i].Markdown()
			fmt.Fprintln(stdout, md)
			report.WriteString(md)
			report.WriteString("\n")
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
	}
	if truncated {
		return 1
	}
	return 0
}
