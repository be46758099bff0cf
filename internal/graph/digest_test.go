package graph

import (
	"strings"
	"sync"
	"testing"
)

// TestDigestCanonicalAcrossBuildPaths pins the content-addressing
// contract: the same abstract graph yields the same digest no matter
// which construction path produced it, and different graphs differ.
func TestDigestCanonicalAcrossBuildPaths(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	dense := FromEdges(5, edges)
	sparse := FromEdgeList(5, edges)
	offsets, targets := dense.Arena()
	arena, err := FromArena(append([]int64(nil), offsets...), append([]int32(nil), targets...))
	if err != nil {
		t.Fatal(err)
	}

	d := dense.Digest()
	if !strings.HasPrefix(d, "ncsr1-") || !strings.HasSuffix(d, "-5-5") {
		t.Fatalf("digest %q: want ncsr1-<crc>-5-5", d)
	}
	if sparse.Digest() != d {
		t.Errorf("sparse build digest %q != dense %q", sparse.Digest(), d)
	}
	if arena.Digest() != d {
		t.Errorf("arena build digest %q != dense %q", arena.Digest(), d)
	}

	other := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if other.Digest() == d {
		t.Errorf("different edge sets share digest %q", d)
	}
	sameEdgesMoreNodes := FromEdges(6, edges)
	if sameEdgesMoreNodes.Digest() == d {
		t.Errorf("different node counts share digest %q", d)
	}
}

// TestDigestEmptyGraph covers the zero value and the explicit empty
// builder, which must agree (both serialize as offsets=[0]).
func TestDigestEmptyGraph(t *testing.T) {
	var zero Graph
	built := NewBuilder(0).Build()
	if zero.Digest() != built.Digest() {
		t.Fatalf("zero-value digest %q != built empty digest %q", zero.Digest(), built.Digest())
	}
}

// TestDigestConcurrent exercises the lazy computation under the race
// detector: many goroutines must observe the same cached string.
func TestDigestConcurrent(t *testing.T) {
	g := FromEdges(50, [][2]int{{0, 1}, {3, 4}, {10, 20}, {20, 30}})
	want := ""
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := g.Digest()
			mu.Lock()
			defer mu.Unlock()
			if want == "" {
				want = d
			} else if d != want {
				t.Errorf("digest %q != %q", d, want)
			}
		}()
	}
	wg.Wait()
}
