package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestUnknownMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown mode") {
		t.Errorf("stderr %q", errb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-qps", "many"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"route", []string{"route"}},
		{"route,paths", []string{"route", "paths"}},
		{"a,,b,", []string{"a", "b"}},
		{"", nil},
	} {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRouterModeRejectsEmptyFleet: router mode without -replicas is a
// configuration error, exit 2.
func TestRouterModeRejectsEmptyFleet(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "router", "-addr", "127.0.0.1:0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "replica") {
		t.Errorf("stderr %q", stderr.String())
	}
}

// TestServeBadSnapshotDir: a broken -snapshotdir must fail startup, not
// serve without the artifacts it was told to load.
func TestServeBadSnapshotDir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mode", "serve",
		"-addr", "127.0.0.1:0",
		"-snapshotdir", filepath.Join(t.TempDir(), "absent"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "snapshot") {
		t.Errorf("stderr %q", stderr.String())
	}
}
