package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/conformance"
)

// TestAcceptancePoint is the CLI acceptance gate: hbcheck -m 2 -n 3
// -json must report every registered invariant passing for all of H, B,
// D, HD and HB and exit 0.
func TestAcceptancePoint(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-m", "2", "-n", "3", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var rep conformance.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Fail != 0 {
		t.Fatalf("fail=%d: %s", rep.Fail, out.String())
	}
	want := map[string]bool{"H(2)": false, "B(3)": false, "D(3)": false, "HD(2,3)": false, "HB(2,3)": false}
	passes := map[string]int{}
	for _, res := range rep.Results {
		if _, ok := want[res.Target]; ok {
			want[res.Target] = true
			if res.Status == conformance.StatusPass {
				passes[res.Target]++
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("target %s missing from report", name)
		}
		if passes[name] == 0 {
			t.Errorf("target %s has no passing invariants", name)
		}
	}
}

// TestHumanOutput: default (non-JSON) mode summarises each target.
func TestHumanOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-m", "1", "-n", "3"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"HB(1,3)", "fail=0", "total:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("human output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCanonicalStableAcrossWorkers: -canonical output is byte-identical
// for different -workers values, the property CI diffs depend on.
func TestCanonicalStableAcrossWorkers(t *testing.T) {
	var a, b, errOut bytes.Buffer
	if code := run([]string{"-m", "1", "-n", "3", "-canonical", "-workers", "1"}, &a, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"-m", "1", "-n", "3", "-canonical", "-workers", "4"}, &b, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if a.String() != b.String() {
		t.Fatalf("canonical output differs:\n--- workers=1\n%s--- workers=4\n%s", a.String(), b.String())
	}
}

// TestCanonicalImplicitStable: -canonical makes the implicit sweep
// timing-free, so two runs give identical bytes.
func TestCanonicalImplicitStable(t *testing.T) {
	args := []string{"-m", "1..2", "-n", "3..4", "-canonical", "-implicit"}
	var a, b, errOut bytes.Buffer
	if code := run(args, &a, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run(args, &b, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if a.String() != b.String() {
		t.Fatalf("canonical implicit output differs between runs:\n--- first\n%s--- second\n%s", a.String(), b.String())
	}
	if strings.Contains(a.String(), "ms ") {
		t.Fatalf("canonical implicit output carries timings:\n%s", a.String())
	}
}

// TestConnSweep: -connsweep prints one timed kappa/lambda row per
// target with values matching the claimed formulas, and exits 0.
func TestConnSweep(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-m", "1..2", "-n", "3", "-connsweep"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"H(2)", "B(3)", "D(3)", "HD(2,3)", "HB(2,3)", "kappa=6", "lambda=6"} {
		if !strings.Contains(got, want) {
			t.Errorf("connsweep output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "MISMATCH") {
		t.Errorf("connsweep reports a mismatch:\n%s", got)
	}
}

// TestConnSweepDetectsMismatch: a target claiming the wrong kappa must
// drive the sweep to a nonzero exit.
func TestConnSweepDetectsMismatch(t *testing.T) {
	target := conformance.HyperButterfly(1, 3)
	target.Connectivity = 99
	var out, errOut bytes.Buffer
	if code := runConnSweep([]conformance.Target{target}, 0, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "KAPPA MISMATCH") {
		t.Errorf("mismatch not flagged:\n%s", out.String())
	}
}

// TestBadFlags: malformed ranges and empty sweeps exit 2 with a
// diagnostic, not 0 or a panic.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "x", "-n", "3"},
		{"-m", "3..1", "-n", "3"},
		{"-m", "2", "-n", ""},
		{"-m", "0", "-n", "1"}, // valid ints but no family accepts them
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", args, code, errOut.String())
		}
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
		ok     bool
	}{
		{"2", 2, 2, true},
		{"1..3", 1, 3, true},
		{" 1 .. 3 ", 1, 3, true},
		{"3..1", 0, 0, false},
		{"", 0, 0, false},
		{"a..b", 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, err := parseRange(c.in)
		if (err == nil) != c.ok || (c.ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("parseRange(%q) = (%d,%d,%v), want (%d,%d,ok=%v)", c.in, lo, hi, err, c.lo, c.hi, c.ok)
		}
	}
}
