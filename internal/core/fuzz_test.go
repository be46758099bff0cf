package core

import (
	"context"
	"testing"

	"nearclique/internal/gen"
)

// FuzzSearchProbeDensity drives the cached probes of a fixed small
// planted instance with hubs through an arbitrary ε sequence: byte b
// probes ε = εMin + (εMax−εMin)·b/255, and an odd byte then also checks
// component b/2 mod |comps|. Every check's density, with rows (the
// planted component) or without (a hub's), must equal Graph.Density of
// the T set built fresh and leave the mark set all-zero, and so must
// materialize.
func FuzzSearchProbeDensity(f *testing.F) {
	g, _ := withHubs(gen.PlantedNearClique(150, 50, 0.1, 0.03, 2), 4, 150)
	so, need, err := SearchOptions{Rho: 0.05, ExpectedSample: 30, Versions: 2, Seed: 5}.normalized(g.N())
	if err != nil {
		f.Fatal(err)
	}
	scratch := getSeqScratch()
	cache, err := buildSearchCache(context.Background(), g, so, need, scratch)
	if err != nil || len(cache.comps) < 2 || !cache.probe(so.EpsMax) {
		f.Fatalf("fixed instance: err %v, %d components; want several and a detecting εMax", err, len(cache.comps))
	}
	rows, none := 0, 0
	for _, sc := range cache.comps {
		switch {
		case !sc.canAnnounce(need):
		case sc.kt.rows != nil:
			rows++
		default:
			none++
		}
	}
	if rows == 0 || none == 0 {
		f.Fatalf("fixed instance: %d components with rows, %d without; want both", rows, none)
	}
	putSeqScratch(scratch)

	f.Add([]byte{255, 127, 63, 95, 79, 71, 75, 77, 76})
	f.Add([]byte{0, 255, 0, 255, 128, 128, 1, 3, 5})
	f.Add([]byte{200, 201, 7, 200, 9, 11, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		scratch := getSeqScratch()
		defer putSeqScratch(scratch)
		cache, err := buildSearchCache(context.Background(), g, so, need, scratch)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			eps := so.EpsMin + (so.EpsMax-so.EpsMin)*float64(b)/255
			cache.probe(eps)
			if ci := cache.bestCommitted(); ci >= 0 {
				checkDensity(t, cache, ci)
			}
			if b&1 == 1 {
				checkDensity(t, cache, int(b>>1)%len(cache.comps))
			}
		}
		cache.materialize(so.EpsMax)
		if c := scratch.mark.Count(); c != 0 {
			t.Fatalf("%d mark bits left set after materialize", c)
		}
	})
}

// FuzzTranspose64 checks the 64×64 bit transpose the voter rows are
// mirrored by: data fills the rows little-endian, zero past its end;
// bit c of row r moves to bit r of row c, and transposing twice gives
// back the input.
func FuzzTranspose64(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x0f, 0xf0, 0x55, 0xaa, 0x33, 0xcc, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [64]uint64
		for i, b := range data[:min(len(data), 512)] {
			in[i/8] |= uint64(b) << uint(8*(i%8))
		}
		out := in
		transpose64(&out)
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				if in[r]>>uint(c)&1 != out[c]>>uint(r)&1 {
					t.Fatalf("bit (%d,%d) is %d, its transpose (%d,%d) is %d", r, c, in[r]>>uint(c)&1, c, r, out[c]>>uint(r)&1)
				}
			}
		}
		if transpose64(&out); out != in {
			t.Fatal("transposing twice changed the matrix")
		}
	})
}
