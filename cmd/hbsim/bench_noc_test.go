package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBenchNoCDrift regenerates the committed BENCH_noc.json with the
// command it records and fails on any difference outside the fields that
// depend on the machine: the engine's flit-events/s, the env block and
// the command itself. Every other field is a seeded simulation count, so
// a difference means the artifact no longer describes the code.
func TestBenchNoCDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length NoC regeneration skipped under -short")
	}
	if raceEnabled {
		t.Skip("full-length NoC regeneration skipped under -race")
	}
	committed := readNoCArtifact(t, filepath.Join("..", "..", "BENCH_noc.json"))
	command, _ := committed["command"].(string)
	args, ok := strings.CutPrefix(command, "go run ./cmd/hbsim ")
	if !ok {
		t.Fatalf("committed command %q is not an hbsim invocation", command)
	}
	argv := strings.Fields(args)
	out := filepath.Join(t.TempDir(), "BENCH_noc.json")
	for i := range argv {
		if argv[i] == "-out" && i+1 < len(argv) {
			argv[i+1] = out
		}
	}
	if code, _, stderr := runCmd(t, argv...); code != 0 {
		t.Fatalf("%s: exit %d, stderr %q", command, code, stderr)
	}
	fresh := readNoCArtifact(t, out)
	for _, unseeded := range []string{"engine_flit_events_per_sec", "env", "command"} {
		delete(committed, unseeded)
		delete(fresh, unseeded)
	}
	for key, v := range committed {
		if !reflect.DeepEqual(v, fresh[key]) {
			t.Errorf("BENCH_noc.json field %q drifted; rerun %s\ncommitted: %v\nfresh:     %v", key, command, v, fresh[key])
		}
	}
	for key := range fresh {
		if _, ok := committed[key]; !ok {
			t.Errorf("BENCH_noc.json lacks field %q; rerun %s", key, command)
		}
	}
}

func readNoCArtifact(t *testing.T, path string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return fields
}
