// Package tables regenerates the paper's evaluation artifacts: the
// family comparison of Figure 1 and the concrete instance comparison of
// Figure 2 (HB(3,8) vs HD(3,11) vs HD(6,8)). Every numeric cell is
// measured on the constructed network — node and edge counts from the
// built adjacency, diameters by (parallel) BFS, fault tolerance by
// max-flow connectivity where exact computation is feasible and by
// minimum-degree bounds plus sampled local connectivity on the 16K-node
// Figure 2 instances.
package tables

import (
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"

	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hypercube"
	"repro/internal/hyperdebruijn"
)

// Summary is one row of a comparison table.
type Summary struct {
	Name    string
	Nodes   int
	Edges   int
	Regular bool
	// Degree is the common degree for regular networks; DegreeMin/Max
	// expose the spread for irregular ones.
	DegreeMin, DegreeMax int
	// Diameter is the measured value (-1 when not measured); formulas
	// carry the analytic claims being checked.
	Diameter            int
	DiameterFormula     int
	Connectivity        int // measured (-1 when not measured exactly)
	ConnectivityFormula int
	ConnectivityNote    string
	// Embedding capability notes (the bottom rows of Figures 1 and 2).
	Cycles, Mesh, BinaryTree, MeshOfTrees string
}

// connSampleBudget is the number of random far-vertex probes used when
// exact global connectivity is too expensive.
const connSampleBudget = 12

// exactLimit is the order up to which exact diameter and connectivity
// are always computed.
const exactLimit = 4096

// SummarizeHypercube measures H_dim.
func SummarizeHypercube(dim int, exact bool) Summary {
	c := hypercube.MustNew(dim)
	d := graph.Build(c)
	s := Summary{
		Name:                fmt.Sprintf("Hypercube H(%d)", dim),
		Nodes:               d.Order(),
		Edges:               d.EdgeCount(),
		Regular:             true,
		DegreeMin:           dim,
		DegreeMax:           dim,
		Diameter:            -1,
		DiameterFormula:     c.DiameterFormula(),
		Connectivity:        -1,
		ConnectivityFormula: c.ConnectivityFormula(),
		Cycles:              "even cycles 4..2^m",
		Mesh:                "yes",
		BinaryTree:          fmt.Sprintf("T(%d)", dim-1),
		MeshOfTrees:         "yes",
	}
	// H is vertex-transitive: one BFS gives the diameter.
	s.Diameter, _ = d.EccentricityScratch(0, graph.NewScratch(d.Order()))
	if exact || d.Order() <= exactLimit {
		s.Connectivity = graph.ConnectivityVertexTransitive(d, 0)
		s.ConnectivityNote = "exact (max-flow)"
	} else {
		s.Connectivity, s.ConnectivityNote = sampledConnectivityVT(d, 0)
	}
	return s
}

// SummarizeButterfly measures B_n.
func SummarizeButterfly(n int, exact bool) Summary {
	b := butterfly.MustNew(n)
	d := b.Dense()
	s := Summary{
		Name:                fmt.Sprintf("Butterfly B(%d)", n),
		Nodes:               d.Order(),
		Edges:               d.EdgeCount(),
		Regular:             true,
		DegreeMin:           4,
		DegreeMax:           4,
		DiameterFormula:     b.DiameterFormula(),
		Connectivity:        -1,
		ConnectivityFormula: b.ConnectivityFormula(),
		Cycles:              "cycles kn+2k'",
		Mesh:                "no",
		BinaryTree:          fmt.Sprintf("T(%d)", n+1),
		MeshOfTrees:         "yes",
	}
	s.Diameter, _ = d.EccentricityScratch(b.Identity(), graph.NewScratch(d.Order()))
	if exact || d.Order() <= exactLimit {
		s.Connectivity = graph.ConnectivityVertexTransitive(d, 0)
		s.ConnectivityNote = "exact (max-flow)"
	} else {
		s.Connectivity, s.ConnectivityNote = sampledConnectivityVT(d, b.Identity())
	}
	return s
}

// SummarizeHD measures HD(m,n). exact enables the full-sweep diameter
// and exact connectivity regardless of size.
func SummarizeHD(m, n int, exact bool) Summary {
	hd := hyperdebruijn.MustNew(m, n)
	d := graph.Build(hd)
	st := graph.Degrees(d)
	s := Summary{
		Name:                fmt.Sprintf("Hyper-deBruijn HD(%d,%d)", m, n),
		Nodes:               d.Order(),
		Edges:               d.EdgeCount(),
		Regular:             st.Regular,
		DegreeMin:           st.Min,
		DegreeMax:           st.Max,
		Diameter:            -1,
		DiameterFormula:     hd.DiameterFormula(),
		Connectivity:        -1,
		ConnectivityFormula: hd.ConnectivityFormula(),
		Cycles:              "pancyclic",
		Mesh:                "yes",
		BinaryTree:          fmt.Sprintf("T(%d)", m+n-1),
		MeshOfTrees:         fmt.Sprintf("MT(2^%d, 2^%d)", maxInt(m-2, 0), n),
	}
	if exact || d.Order() <= exactLimit {
		s.Diameter = graph.Diameter(d, 0)
	}
	if d.Order() <= exactLimit {
		s.Connectivity = graph.Connectivity(d, 0)
		s.ConnectivityNote = "exact (max-flow)"
	} else {
		// A de Bruijn loop vertex (word 00..0) has minimum degree m+2;
		// probe local connectivity from it to random far vertices.
		loop := hd.Encode(0, 0)
		s.Connectivity, s.ConnectivityNote = sampledConnectivityAt(d, loop)
	}
	return s
}

// SummarizeHB measures HB(m,n).
func SummarizeHB(m, n int, exact bool) Summary {
	hb := core.MustNew(m, n)
	d := hb.Dense()
	s := Summary{
		Name:                fmt.Sprintf("Hyper-Butterfly HB(%d,%d)", m, n),
		Nodes:               d.Order(),
		Edges:               d.EdgeCount(),
		Regular:             true,
		DegreeMin:           hb.Degree(),
		DegreeMax:           hb.Degree(),
		DiameterFormula:     hb.DiameterFormula(),
		Connectivity:        -1,
		ConnectivityFormula: hb.ConnectivityFormula(),
		Cycles:              fmt.Sprintf("even cycles 4..%d", hb.Order()),
		Mesh:                "yes",
		BinaryTree:          fmt.Sprintf("T(%d)", m+n-1),
		MeshOfTrees:         fmt.Sprintf("MT(2^%d, 2^%d)", maxInt(m-2, 1), n),
	}
	s.Diameter, _ = d.EccentricityScratch(hb.Identity(), graph.NewScratch(d.Order())) // vertex-transitive
	if exact || d.Order() <= exactLimit {
		s.Connectivity = graph.ConnectivityVertexTransitive(d, 0)
		s.ConnectivityNote = "exact (max-flow)"
	} else {
		s.Connectivity, s.ConnectivityNote = sampledConnectivityVT(d, hb.Identity())
	}
	return s
}

// sampledConnectivityVT estimates the connectivity of a vertex-transitive
// graph: the minimum local connectivity from a base vertex to random
// non-neighbors plus all vertices at distance 2 from it (minimum cuts of
// vertex-transitive graphs in this family isolate neighborhoods, which
// distance-2 probes detect).
func sampledConnectivityVT(d *graph.Dense, base int) (int, string) {
	rng := rand.New(rand.NewSource(1))
	targets := make(map[int]bool)
	dist := graph.BFS(d, base, nil)
	for v, dv := range dist {
		if dv == 2 {
			targets[v] = true
			if len(targets) >= connSampleBudget {
				break
			}
		}
	}
	for len(targets) < 2*connSampleBudget {
		v := rng.Intn(d.Order())
		if v != base && !d.HasEdge(base, v) {
			targets[v] = true
		}
	}
	// One flow arena serves every probe; the running best caps each flow
	// so later probes stop as soon as they match the current minimum.
	fs := graph.NewFlowScratch(d)
	best := d.Order()
	for v := range targets {
		if c := fs.LocalConnectivity(base, v, best); c < best {
			best = c
		}
	}
	return best, fmt.Sprintf("sampled upper bound (%d probes); exact on small instances in tests", len(targets))
}

// sampledConnectivityAt probes local connectivity from a specific weak
// vertex (e.g. a de Bruijn loop vertex) to random and distance-2
// targets.
func sampledConnectivityAt(d *graph.Dense, weak int) (int, string) {
	best, note := sampledConnectivityVT(d, weak)
	return best, note + "; probed from a minimum-degree vertex"
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Figure1 regenerates the comparison of Figure 1 at a concrete (m,n):
// the four families at matched dimension budget m+n.
func Figure1(m, n int, exact bool) []Summary {
	return []Summary{
		SummarizeHypercube(m+n, exact),
		SummarizeButterfly(m+n, exact),
		SummarizeHD(m, n, exact),
		SummarizeHB(m, n, exact),
	}
}

// Figure2 regenerates the concrete comparison of Figure 2: HB(3,8)
// against the two hyper-deBruijn instances with the same number of
// nodes. exact enables the full-sweep HD diameters (a few seconds).
func Figure2(exact bool) []Summary {
	hb := SummarizeHB(3, 8, false)
	hb.MeshOfTrees = "MT(2^1, 2^8)"
	hd1 := SummarizeHD(3, 11, exact)
	hd1.MeshOfTrees = "MT(2^1, 2^10)"
	hd1.BinaryTree = "T(13)"
	hd2 := SummarizeHD(6, 8, exact)
	hd2.MeshOfTrees = "MT(2^4, 2^6)"
	hd2.BinaryTree = "T(13)"
	return []Summary{hb, hd1, hd2}
}

// Figure1Symbolic returns the formula table exactly as printed in
// Figure 1 of the paper, for side-by-side display with measured values.
func Figure1Symbolic() string {
	rows := [][]string{
		{"Parameter", "Hypercube", "Butterfly", "Hyper-deBruijn", "Hyper-Butterfly"},
		{"Nodes", "2^(m+n)", "(m+n)2^(m+n)", "2^(m+n)", "n·2^(m+n)"},
		{"Edges", "(m+n)2^(m+n-1)", "(m+n)2^(m+n+1)", "2^(m+n+1)", "(m+4)n·2^(m+n-1)"},
		{"Regular", "yes", "yes", "no", "yes"},
		{"Degree", "m+n", "4", "m+4", "m+4"},
		{"Diameter", "m+n", "floor(3(m+n)/2)", "m+n", "m+floor(3n/2)"},
		{"Fault-tolerance", "m+n", "4", "m+2", "m+4"},
		{"Cycles", "even", "kn+2k'", "pancyclic", "even"},
		{"Mesh", "yes", "no", "yes", "yes"},
		{"Binary tree", "T(m+n-1)", "T(m+n+1)", "T(m+n-1)", "T(m+n-1)"},
		{"Mesh of trees", "yes", "yes", "yes", "yes"},
	}
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

// Render formats summaries as an aligned text table with one column per
// network, mirroring the layout of the paper's figures.
func Render(title string, rows []Summary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	header := []string{"Parameter"}
	for _, r := range rows {
		header = append(header, r.Name)
	}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	line := func(name string, cell func(Summary) string) {
		parts := []string{name}
		for _, r := range rows {
			parts = append(parts, cell(r))
		}
		fmt.Fprintln(w, strings.Join(parts, "\t"))
	}
	line("Nodes", func(s Summary) string { return fmt.Sprintf("%d", s.Nodes) })
	line("Edges", func(s Summary) string { return fmt.Sprintf("%d", s.Edges) })
	line("Regular", func(s Summary) string { return yesNo(s.Regular) })
	line("Degree", func(s Summary) string {
		if s.DegreeMin == s.DegreeMax {
			return fmt.Sprintf("%d", s.DegreeMax)
		}
		return fmt.Sprintf("%d..%d", s.DegreeMin, s.DegreeMax)
	})
	line("Diameter", func(s Summary) string { return measured(s.Diameter, s.DiameterFormula) })
	line("Fault-tolerance", func(s Summary) string { return measured(s.Connectivity, s.ConnectivityFormula) })
	line("Cycles", func(s Summary) string { return s.Cycles })
	line("2-dim mesh", func(s Summary) string { return s.Mesh })
	line("Binary tree", func(s Summary) string { return s.BinaryTree })
	line("Mesh of trees", func(s Summary) string { return s.MeshOfTrees })
	w.Flush()
	return sb.String()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// measured renders "value (formula f)" and flags mismatches loudly.
func measured(got, formula int) string {
	switch {
	case got == -1:
		return fmt.Sprintf("formula %d (not measured)", formula)
	case got == formula:
		return fmt.Sprintf("%d", got)
	default:
		return fmt.Sprintf("%d (FORMULA %d MISMATCH)", got, formula)
	}
}
