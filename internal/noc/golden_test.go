package noc

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestResultJSONGolden pins the JSON encoding of Result — field names
// and values for one deterministic run — so the stats shared with
// hbsim's reports and perfbench cannot drift silently. Regenerate with:
// go test ./internal/noc -run ResultJSONGolden -update
func TestResultJSONGolden(t *testing.T) {
	hb := core.MustNew(1, 3)
	cfg := hbTraffic(hb, Uniform, 0.05, 200, 42)
	cfg.InjectCycles = 100
	res := mustRun(t, hb, cfg)
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "result_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("Result JSON drifted from golden file:\ngot:\n%s\nwant:\n%s\n(run with -update if intentional)", got, want)
	}

	// The encoding must round-trip losslessly.
	var back Result
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != res {
		t.Errorf("round trip changed the result: %+v vs %+v", back, res)
	}
}
