package main

import (
	"fmt"
	"sort"
)

// percentile returns the nearest-rank pct-th percentile of samples: the
// smallest sample with at least pct percent of all samples at or below it.
// It is always an observed value, never an interpolation or a histogram
// bucket bound. The rank is computed in integers, so 95% of 100 samples is
// rank 95 exactly. samples must be non-empty; it is sorted in place.
func percentile(samples []float64, pct int) float64 {
	sort.Float64s(samples)
	return samples[rank(len(samples), pct)-1]
}

// rank is the 1-based nearest rank of the pct-th percentile among n samples.
func rank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie above the pct-th percentile's rank:
// the tail a percentile rests on.
func beyond(n, pct int) int { return n - rank(n, pct) }

// median is the nearest-rank median of a copy of samples.
func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 50)
}

// metric is one reported number with its unit and the sample count behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func (m metric) String() string {
	return fmt.Sprintf("%-28s %14.6g %-9s n=%d", m.name, m.value, m.unit, m.samples)
}

// find returns the named metric.
func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}
