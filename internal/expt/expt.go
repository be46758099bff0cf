// Package expt defines the experiment suite that regenerates every
// empirical claim of the paper (see DESIGN.md §4 for the index E1..E10).
// Each experiment produces one or more Tables, each pairing the paper's
// expectation with the measurement; go run ./cmd/experiments prints them.
package expt

import (
	"fmt"
	"sort"
	"strings"
)

// Config tunes an experiment run.
type Config struct {
	// Trials per grid point (0 = experiment default).
	Trials int
	// Seed is the base seed; trials derive from it deterministically.
	Seed int64
	// Quick shrinks grids for benchmarks and CI.
	Quick bool
}

// Table is one result table.
type Table struct {
	ID     string
	Title  string
	Note   string // the paper's expectation, printed with the table
	Header []string
	Rows   [][]string
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) []Table
}

// All returns the full suite in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Theorem 5.7: output size and density vs sample size", Run: RunE1},
		{ID: "E2", Title: "Corollary 2.2: constant rounds for linear near-cliques", Run: RunE2},
		{ID: "E3", Title: "Corollary 2.3: sublinear cliques", Run: RunE3},
		{ID: "E4", Title: "Claim 1 / Figure 1: shingles counterexample", Run: RunE4},
		{ID: "E5", Title: "Section 3: neighbors' neighbors message blowup", Run: RunE5},
		{ID: "E6", Title: "Section 4.1: boosting wrapper", Run: RunE6},
		{ID: "E7", Title: "Lemmas 5.1/5.2: round complexity vs 2^|S|", Run: RunE7},
		{ID: "E8", Title: "Lemma 5.3: candidate density invariant (+ estimation ablation)", Run: RunE8},
		{ID: "E9", Title: "Section 6: impossibility construction", Run: RunE9},
		{ID: "E10", Title: "Tolerant testing: DistNearClique vs GGR tester", Run: RunE10},
		{ID: "E11", Title: "Section 2: asynchronous execution via an α-synchronizer", Run: RunE11},
		{ID: "E12", Title: "Related work: maximal cliques via complement-MIS vs DistNearClique", Run: RunE12},
		{ID: "E13", Title: "Engine scaling: sharded flat-buffer simulator to 10⁶ nodes", Run: RunE13},
	}
}

// ByID returns the experiments matching a comma-separated ID list
// (case-insensitive); an empty selector returns all.
func ByID(selector string) ([]Experiment, error) {
	all := All()
	if strings.TrimSpace(selector) == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, s := range strings.Split(selector, ",") {
		want[strings.ToUpper(strings.TrimSpace(s))] = true
	}
	var out []Experiment
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
			delete(want, e.ID)
		}
	}
	if len(want) != 0 {
		var missing []string
		for id := range want {
			missing = append(missing, id)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("expt: unknown experiment IDs: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func f(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }

func pct(k, n int) string {
	if n == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d (%.0f%%)", k, n, 100*float64(k)/float64(n))
}
