package nearclique_test

import (
	"testing"

	"nearclique"
)

// FuzzParseEngine pins ParseEngine on arbitrary input: it never panics,
// and every accepted spelling canonicalizes, so the canonical name
// Engine.String gives parses back to the same engine.
func FuzzParseEngine(f *testing.F) {
	for _, s := range []string{"auto", "seq", "sequential", "sharded", "legacy", "async", "frontier", "shadow", "", "SEQ", "seq ", "Engine(9)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := nearclique.ParseEngine(s)
		if err != nil {
			return
		}
		back, err := nearclique.ParseEngine(e.String())
		if err != nil || back != e {
			t.Fatalf("ParseEngine(%q) = %v, but its name %q parses to %v, %v", s, e, e.String(), back, err)
		}
	})
}

// FuzzParseRefineSpec pins the refinement spec parser on arbitrary
// input: it never panics, and an accepted spec's canonical string is
// itself accepted, parses to an equal spec, and renders identically —
// the property the serving layer's cache keys rest on.
func FuzzParseRefineSpec(f *testing.F) {
	for _, s := range []string{
		"near", "near:0.2", "quasi:0.6", "quasi:0.60", "near,moves=128", "near:0.1,pool=4096,moves=512",
		"quasi", "near:", "near:NaN", "quasi:NaN", "near:-0", "quasi:0x1p-2", "near,moves=+5", "near,,", "near:0.2,moves=1,moves=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := nearclique.ParseRefineSpec(in)
		if err != nil {
			return
		}
		canon := s.String()
		again, err := nearclique.ParseRefineSpec(canon)
		if err != nil {
			t.Fatalf("%q parses to %+v, whose canonical %q is rejected: %v", in, s, canon, err)
		}
		if again != s || again.String() != canon {
			t.Fatalf("%q parses to %+v (%q), but its canonical string parses to %+v (%q)", in, s, canon, again, again.String())
		}
	})
}
