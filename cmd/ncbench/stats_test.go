package main

import (
	"math"
	"testing"
)

// TestPercentileRankTable checks nearest-rank percentiles against ranks
// worked out by hand: rank = ⌈pct·n/100⌉, the rank-th smallest sample.
func TestPercentileRankTable(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting is exercised
		}
		return out
	}
	for _, tc := range []struct {
		n, pct   int
		want     float64 // the rank-th smallest of 1..n is the rank itself
		beyondIt int
	}{
		{1, 50, 1, 0},
		{1, 99, 1, 0},
		{2, 50, 1, 1},
		{7, 50, 4, 3},      // ⌈3.5⌉ = 4
		{10, 95, 10, 0},    // ⌈9.5⌉ = 10
		{20, 50, 10, 10},   // ⌈10⌉ = 10
		{20, 95, 19, 1},    // ⌈19⌉ = 19
		{20, 99, 20, 0},    // ⌈19.8⌉ = 20
		{100, 95, 95, 5},   // 0.95·100 is 95.00000000000001 in floats; the rank is 95
		{300, 95, 285, 15}, // the smallest run with 15 samples beyond p95
		{1000, 99, 990, 10},
	} {
		if got := percentile(seq(tc.n), tc.pct); got != tc.want {
			t.Errorf("p%d of 1..%d = %v, want %v", tc.pct, tc.n, got, tc.want)
		}
		if got := beyond(tc.n, tc.pct); got != tc.beyondIt {
			t.Errorf("beyond(%d, %d) = %d, want %d", tc.n, tc.pct, got, tc.beyondIt)
		}
	}
	// Ties and unsorted input: 3 1 2 2 5 sorts to 1 2 2 3 5.
	if got := median([]float64{3, 1, 2, 2, 5}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestSelfTimesAndReconciliation builds one op trace by hand. Self time
// is a span minus the union of its children clipped to it; spans that
// stray outside their parent or overlap a sibling break reconciliation.
func TestSelfTimesAndReconciliation(t *testing.T) {
	tr := &trace{Spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "server.handler", Parent: 0, Start: 10, End: 90},
		{Name: "nearclique.Solve", Parent: 1, Start: 20, End: 80},
		{Name: "engine.v0/explore", Parent: 2, Start: 20, End: 50},
		{Name: "engine.decide", Parent: 2, Start: 50, End: 70},
	}}
	want := []int64{20, 20, 10, 30, 20}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("self(%s) = %d, want %d", tr.Spans[i].Name, got, want[i])
		}
	}
	l := newLayers()
	l.add(tr)
	if e := l.reconcileErr(); e != 0 {
		t.Errorf("well-nested trace: reconcile error %v, want 0", e)
	}
	tiers := map[string]float64{}
	for _, m := range l.tierMetrics() {
		tiers[m.name] = m.value
	}
	for name, ns := range map[string]float64{"layer.client_ms_per_op": 20, "layer.server_ms_per_op": 20,
		"layer.nearclique_ms_per_op": 10, "layer.phases_ms_per_op": 50} {
		if got := tiers[name]; math.Abs(got-ns/1e6) > 1e-12 {
			t.Errorf("%s = %v ms, want %v", name, got, ns/1e6)
		}
	}

	// A phase that overruns its call by 10 and overlaps its sibling by 10
	// is counted once by the parent's coverage but fully in its own self
	// time: the layers sum to 20 more than the op.
	bad := &trace{Spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "nearclique.Solve", Parent: 0, Start: 0, End: 100},
		{Name: "engine.v0/explore", Parent: 1, Start: 0, End: 60},
		{Name: "engine.decide", Parent: 1, Start: 50, End: 110},
	}}
	l = newLayers()
	l.add(bad)
	if e := l.reconcileErr(); math.Abs(e-0.2) > 1e-12 {
		t.Errorf("overlapping trace: reconcile error %v, want 0.2", e)
	}
}
