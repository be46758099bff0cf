package report

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"nearclique/internal/core"
	"nearclique/internal/gen"
)

// TestSharedCostBlockIsFlat pins the wire format: the embedded Cost block
// must flatten into the same top-level keys in both record types, so one
// parser serves cmd/nearclique -json and cmd/bench output.
func TestSharedCostBlockIsFlat(t *testing.T) {
	for _, record := range []interface{}{
		Run{Engine: "sharded", N: 10, M: 20, Cost: Cost{Rounds: 3, Frames: 4, PayloadBytes: 5, WallNS: 6}},
		Measurement{Workload: "w", Engine: "sharded", N: 10, M: 20, Cost: Cost{Rounds: 3, Frames: 4, PayloadBytes: 5, WallNS: 6}},
	} {
		enc, err := json.Marshal(record)
		if err != nil {
			t.Fatal(err)
		}
		var flat map[string]interface{}
		if err := json.Unmarshal(enc, &flat); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"engine", "n", "m", "rounds", "frames", "payload_bytes", "wall_ns"} {
			if _, ok := flat[key]; !ok {
				t.Errorf("%T: missing shared key %q in %s", record, key, enc)
			}
		}
		if _, ok := flat["Cost"]; ok {
			t.Errorf("%T: Cost did not flatten", record)
		}
	}
}

// TestMeasurementCountRowOmitsSimulatorRates: a count row has no
// simulated rounds, so its derived simulator rates are left out rather
// than written as zeros that read as "not measured".
func TestMeasurementCountRowOmitsSimulatorRates(t *testing.T) {
	enc, err := json.Marshal(Measurement{Workload: "count", Engine: "shadow", K: 4, SamplesPerSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	var flat map[string]interface{}
	if err := json.Unmarshal(enc, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rounds_per_sec", "payload_mb_per_sec", "allocs_per_round"} {
		if _, ok := flat[key]; ok {
			t.Errorf("count row carries %q: %s", key, enc)
		}
	}
}

func TestFromResultCarriesPartialsAndErrors(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.1, 1)
	res, err := core.Find(g, core.Options{Epsilon: 0.3, ExpectedSample: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := FromResult("sharded", g, res, 5*time.Millisecond, nil)
	if rec.N != 60 || rec.Rounds != res.Metrics.Rounds || rec.WallNS != 5e6 || rec.Error != "" {
		t.Fatalf("unexpected record: %+v", rec)
	}

	failed := FromResult("sharded", g, res, time.Millisecond, errors.New("boom"))
	if failed.Error != "boom" || failed.Rounds != res.Metrics.Rounds {
		t.Fatal("error record lost the error or the partial costs")
	}
	empty := FromResult("seq", g, nil, time.Millisecond, errors.New("early"))
	if empty.Error != "early" || empty.Rounds != 0 || empty.N != 60 {
		t.Fatalf("nil-result record malformed: %+v", empty)
	}
}
