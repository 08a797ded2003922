// Command hbtables regenerates the paper's evaluation tables.
//
//	hbtables -table 1 [-m 3 -n 4] [-exact]   Figure 1 (family comparison)
//	hbtables -table 2 [-exact]               Figure 2 (HB(3,8) vs HD(3,11) vs HD(6,8))
//
// Without -exact, expensive cells on 16K-node instances (full-sweep HD
// diameters, global connectivity) are replaced by formula values plus
// sampled probes; -exact measures everything (the HD diameter sweeps
// take a few seconds each).
//
// -cpuprofile/-memprofile capture pprof profiles of the sweep, mirroring
// the go test flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/profiling"
	"repro/internal/tables"
)

func main() {
	os.Exit(run())
}

func run() int {
	table := flag.Int("table", 0, "which table to regenerate: 1 or 2 (0 = both)")
	m := flag.Int("m", 3, "hypercube dimension for Figure 1")
	n := flag.Int("n", 4, "butterfly dimension for Figure 1")
	exact := flag.Bool("exact", false, "measure every cell exactly (slower)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the table sweep to this file")
	memprofile := flag.String("memprofile", "", "write a GC-settled heap profile to this file on exit")
	flag.Parse()

	if *table < 0 || *table > 2 {
		fmt.Fprintf(os.Stderr, "hbtables: unknown table %d\n", *table)
		return 2
	}
	stopProfile, err := profiling.Start(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbtables:", err)
		return 2
	}
	defer func() {
		stopProfile()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "hbtables:", err)
		}
	}()

	out := struct {
		Figure1 []tables.Summary `json:"figure1,omitempty"`
		Figure2 []tables.Summary `json:"figure2,omitempty"`
	}{}
	if *table == 0 || *table == 1 {
		out.Figure1 = tables.Figure1(*m, *n, *exact)
	}
	if *table == 0 || *table == 2 {
		out.Figure2 = tables.Figure2(*exact)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "hbtables:", err)
			return 1
		}
		return 0
	}
	if out.Figure1 != nil {
		fmt.Println("Figure 1 — symbolic (as printed in the paper)")
		fmt.Println(tables.Figure1Symbolic())
		title := fmt.Sprintf("Figure 1 — measured at m=%d, n=%d", *m, *n)
		fmt.Println(tables.Render(title, out.Figure1))
	}
	if out.Figure2 != nil {
		fmt.Println(tables.Render("Figure 2 — HB(3,8) vs HD(3,11) vs HD(6,8)", out.Figure2))
		if !*exact {
			fmt.Println("(HD diameters shown as formulas; rerun with -exact for the full BFS sweep)")
		}
	}
	return 0
}
