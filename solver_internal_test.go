package nearclique

import (
	"runtime"
	"testing"
)

// TestBatchSplitsParallelism pins SolveBatch's share of the machine on
// every Solve engine, the replay included: W concurrent runs get
// GOMAXPROCS/W workers each (at least one) unless WithParallelism set a
// bound, and a lone run keeps the default.
func TestBatchSplitsParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct{ set, workers, want int }{
		{0, 1, 0},
		{0, 2, 2},
		{0, 3, 1},
		{0, 8, 1},
		{3, 2, 3},
	}
	for _, e := range []Engine{EngineAuto, EngineSequential, EngineSharded, EngineAsync} {
		for _, c := range cases {
			s, err := New(WithEngine(e), WithParallelism(c.set))
			if err != nil {
				t.Fatal(err)
			}
			if got := s.batchOptions(c.workers).Parallelism; got != c.want {
				t.Errorf("engine %v, WithParallelism(%d), %d batch workers at GOMAXPROCS 4: Parallelism %d, want %d",
					e, c.set, c.workers, got, c.want)
			}
		}
	}
}
