// Command hbcheck runs the conformance suite — the machine-checkable
// form of every paper claim — over a sweep of (m,n) dimensions and all
// topology families, in parallel, and reports pass/fail/skip per
// (target, invariant) cell.
//
//	hbcheck -m 2 -n 3                  one point: H_2, B_3, D_3, HD(2,3), HB(2,3)
//	hbcheck -m 1..3 -n 3..5            full sweep of the ranges
//	hbcheck -m 2 -n 3 -json            machine-readable report (CI gate)
//	hbcheck -m 2 -n 3 -workers 8 -v    explicit parallelism, per-cell detail
//	hbcheck -m 3 -n 4 -connsweep       timed exact kappa/lambda per target (Menger engine)
//
// -connsweep replaces the invariant matrix with a timed connectivity
// sweep: exact vertex and edge connectivity of every target via the
// parallel Menger engine, checked against the claimed formulas. Combine
// with -cpuprofile to profile the flow kernels under real load.
//
// Exit status is 0 iff every executed invariant passed; skipped cells
// (quantities a family does not claim, or instances over the size caps)
// do not fail the run but are always listed in the report. CI consumes
// the -json form: the `fail` counter gates the build and `results` is
// the per-cell breakdown (see EXPERIMENTS.md, E-CF).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/conformance"
	"repro/internal/graph"
	"repro/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mFlag := fs.String("m", "2", "hypercube dimension or range, e.g. 2 or 1..3")
	nFlag := fs.String("n", "3", "butterfly/deBruijn dimension or range, e.g. 3 or 3..5")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit the full JSON report")
	verbose := fs.Bool("v", false, "list every invariant cell, not just failures")
	pairs := fs.Int("pairs", 0, "sampled pairs per pairwise invariant (0 = default 48)")
	maxConn := fs.Int("maxconn", 0, "max order for the max-flow connectivity check (0 = default 2048)")
	canonical := fs.Bool("canonical", false, "emit the timing-free canonical report (diffable across runs)")
	connsweep := fs.Bool("connsweep", false, "run a timed exact connectivity sweep instead of the invariant matrix")
	implicit := fs.Bool("implicit", false, "run the exhaustive implicit-vs-dense differential sweep instead of the invariant matrix")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write a GC-settled heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfile, err := profiling.Start(*cpuprofile)
	if err != nil {
		fmt.Fprintf(stderr, "hbcheck: %v\n", err)
		return 2
	}
	defer func() {
		stopProfile()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(stderr, "hbcheck: %v\n", err)
		}
	}()
	mLo, mHi, err := parseRange(*mFlag)
	if err != nil {
		fmt.Fprintf(stderr, "hbcheck: -m: %v\n", err)
		return 2
	}
	nLo, nHi, err := parseRange(*nFlag)
	if err != nil {
		fmt.Fprintf(stderr, "hbcheck: -n: %v\n", err)
		return 2
	}
	targets, err := conformance.Sweep(mLo, mHi, nLo, nHi)
	if err != nil {
		fmt.Fprintf(stderr, "hbcheck: %v\n", err)
		return 2
	}
	if len(targets) == 0 {
		fmt.Fprintf(stderr, "hbcheck: sweep m=%d..%d n=%d..%d produces no valid targets\n", mLo, mHi, nLo, nHi)
		return 2
	}
	if *connsweep {
		return runConnSweep(targets, *workers, stdout, stderr)
	}
	if *implicit {
		return runImplicitSweep(mLo, mHi, nLo, nHi, *pairs, *jsonOut, *canonical, stdout, stderr)
	}
	rep := conformance.Run(targets, conformance.DefaultInvariants(), conformance.Options{
		Workers:              *workers,
		MaxPairs:             *pairs,
		MaxConnectivityOrder: *maxConn,
	})
	switch {
	case *jsonOut:
		raw, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "hbcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	case *canonical:
		stdout.Write(rep.Canonical())
	default:
		rep.WriteText(stdout, *verbose)
	}
	if !rep.OK() {
		fmt.Fprintf(stderr, "hbcheck: %d invariant(s) failed: %s\n", rep.Fail, strings.Join(rep.FailedNames(), ", "))
		return 1
	}
	return 0
}

// runConnSweep computes exact vertex and edge connectivity of every
// target with the parallel Menger engine, prints per-target timings,
// and exits nonzero if a measured value contradicts a claimed formula.
func runConnSweep(targets []conformance.Target, workers int, stdout, stderr io.Writer) int {
	bad := 0
	for i := range targets {
		t := &targets[i]
		d := graph.Build(t.Graph)
		t0 := time.Now()
		var kappa int
		if t.VertexTransitive {
			kappa = graph.ConnectivityVertexTransitive(d, workers)
		} else {
			kappa = graph.Connectivity(d, workers)
		}
		kElapsed := time.Since(t0)
		t0 = time.Now()
		lambda := graph.EdgeConnectivity(d, workers)
		lElapsed := time.Since(t0)
		status := "ok"
		if t.Connectivity >= 0 && kappa != t.Connectivity {
			status = fmt.Sprintf("KAPPA MISMATCH (claimed %d)", t.Connectivity)
			bad++
		}
		if t.EdgeConnectivity > 0 && lambda != t.EdgeConnectivity {
			status = fmt.Sprintf("LAMBDA MISMATCH (claimed %d)", t.EdgeConnectivity)
			bad++
		}
		fmt.Fprintf(stdout, "%-10s order=%-6d kappa=%-3d %8.1fms  lambda=%-3d %8.1fms  %s\n",
			t.Name, d.Order(), kappa, float64(kElapsed)/float64(time.Millisecond),
			lambda, float64(lElapsed)/float64(time.Millisecond), status)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "hbcheck: %d connectivity mismatch(es)\n", bad)
		return 1
	}
	return 0
}

// runImplicitSweep is the implicit-vs-dense differential gate: on every
// HB(m,n) in the range, the label-arithmetic neighbors, distances and
// routes are checked against a BFS over the built adjacency for all
// pairs, and sampled Theorem 5 constructions are verified on that
// adjacency and matched against a max-flow on it. Exit status 1 if any instance diverges.
// canonical drops the per-instance timings.
func runImplicitSweep(mLo, mHi, nLo, nHi, pairs int, jsonOut, canonical bool, stdout, stderr io.Writer) int {
	rep, err := conformance.ImplicitSweep(mLo, mHi, nLo, nHi, pairs)
	if err != nil {
		fmt.Fprintf(stderr, "hbcheck: %v\n", err)
		return 2
	}
	if jsonOut {
		raw, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(stderr, "hbcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	} else if canonical {
		stdout.Write(rep.Canonical())
	} else {
		rep.WriteText(stdout)
	}
	if !rep.OK() {
		fmt.Fprintf(stderr, "hbcheck: implicit differential failed on %d instance(s)\n", rep.Fail)
		return 1
	}
	return 0
}

// parseRange accepts "k" or "lo..hi" (inclusive).
func parseRange(s string) (lo, hi int, err error) {
	if a, b, ok := strings.Cut(s, ".."); ok {
		lo, err = strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
		hi, err = strconv.Atoi(strings.TrimSpace(b))
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
		if lo > hi {
			return 0, 0, fmt.Errorf("range %q is empty", s)
		}
		return lo, hi, nil
	}
	lo, err = strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, 0, fmt.Errorf("bad dimension %q", s)
	}
	return lo, lo, nil
}
