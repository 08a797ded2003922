package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownMode(t *testing.T) {
	code, _, stderr := runCmd(t, "-mode", "frobnicate")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown mode "frobnicate"`) || !strings.Contains(stderr, "Usage") {
		t.Errorf("stderr %q", stderr)
	}
}

func TestUnknownFlag(t *testing.T) {
	code, _, _ := runCmd(t, "-mode", "noc", "-frobnicate")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestUnexpectedArgument(t *testing.T) {
	code, _, stderr := runCmd(t, "-mode", "noc", "extra")
	if code != 2 || !strings.Contains(stderr, `unexpected argument "extra"`) {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadPattern(t *testing.T) {
	code, _, stderr := runCmd(t, "-mode", "noc", "-pattern", "hotspot")
	if code != 2 || !strings.Contains(stderr, `unknown pattern "hotspot"`) {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadDimensions(t *testing.T) {
	code, _, stderr := runCmd(t, "-mode", "noc", "-m", "2", "-n", "2")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (construction error, not usage)", code)
	}
	if strings.Contains(stderr, "Usage") {
		t.Errorf("construction errors should not print usage: %q", stderr)
	}
}

func TestNoCSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_noc.json")
	code, stdout, stderr := runCmd(t,
		"-mode", "noc", "-m", "2", "-n", "3", "-rate", "0.3", "-cycles", "200",
		"-vcs", "4", "-bufdepth", "2", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"flit-events/s", "adaptive+escape", "tree escape", "churn:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"env"`, `"command"`, "engine_flit_events_per_sec", "hb_saturation", "hyperdebruijn_saturation"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("artifact lacks %q", key)
		}
	}
}

func TestWormholeSmoke(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-mode", "wormhole", "-m", "2", "-n", "3", "-rate", "0.3", "-cycles", "500")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "dateline") {
		t.Errorf("stdout %q", stdout)
	}
}

func TestTrafficSmoke(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-mode", "traffic", "-m", "2", "-n", "3", "-cycles", "300")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"HB(2,3) [", "HD(2,3) [", "H(5) ", "B(5) ", "HB(2,3) adaptive"} {
		if strings.Count(stdout, want) != 2 { // one row per pattern
			t.Errorf("stdout lacks two %q rows:\n%s", want, stdout)
		}
	}
}

func TestChaosSmoke(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-mode", "chaos", "-m", "2", "-n", "3", "-rate", "0.05", "-cycles", "800")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "gate:") {
		t.Errorf("no gate line:\n%s", stdout)
	}
	// Columns: schedule (two words), max live, injected, delivered,
	// dropped, skipped, reroutes, ...
	rows := 0
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || (f[0] != "random" && f[0] != "adversarial") {
			continue
		}
		rows++
		if f[7] == "0" {
			t.Errorf("no reroute in %q", line)
		}
	}
	if rows != 2 {
		t.Errorf("found %d schedule rows, want 2:\n%s", rows, stdout)
	}
}
