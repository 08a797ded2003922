// Command hbnet inspects a hyper-butterfly network HB(m,n).
//
//	hbnet -m 2 -n 3 info                     order, edges, degree, diameter
//	hbnet -m 2 -n 3 verify                   re-verify the paper's theorems
//	hbnet -m 2 -n 3 label 17                 print a node's two-part label
//	hbnet -m 2 -n 3 route 0 95               shortest route with generators
//	hbnet -m 2 -n 3 paths 0 95               the m+4 disjoint paths (Theorem 5)
//	hbnet -m 2 -n 3 broadcast 0              structured broadcast statistics
//	hbnet -m 3 -n 4 embed tree               verified Section 4 embeddings
//	hbnet -m 2 -n 3 decompose                Remark 5 partitions
//	hbnet -m 2 -n 4 cut                      constructive bisections (VLSI)
//
// Exit status: 0 on success, 1 on a verification or construction
// failure, 2 on a usage error (unknown command, malformed or
// out-of-range arguments).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/layout"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks bad invocations (exit 2, usage printed); every other
// error exits 1.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	m := fs.Int("m", 2, "hypercube dimension")
	n := fs.Int("n", 3, "butterfly dimension")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := dispatch(*m, *n, fs.Args(), stdout)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "hbnet:", err)
	if _, ok := err.(*usageError); ok {
		usage(stderr)
		return 2
	}
	return 1
}

func dispatch(m, n int, args []string, w io.Writer) error {
	if len(args) == 0 {
		return usagef("missing command")
	}
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	switch cmd := args[0]; cmd {
	case "info":
		info(w, hb)
		return nil
	case "verify":
		return verify(w, hb)
	case "label":
		v, err := parseNode(hb, args, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "node %d = %s  (PI=%d CI=%d)\n", v, hb.VertexLabel(v),
			hb.Butterfly().PI(nodeB(hb, v)), hb.Butterfly().CI(nodeB(hb, v)))
		return nil
	case "route":
		u, err := parseNode(hb, args, 1)
		if err != nil {
			return err
		}
		v, err := parseNode(hb, args, 2)
		if err != nil {
			return err
		}
		route(w, hb, u, v)
		return nil
	case "paths":
		u, err := parseNode(hb, args, 1)
		if err != nil {
			return err
		}
		v, err := parseNode(hb, args, 2)
		if err != nil {
			return err
		}
		return paths(w, hb, u, v)
	case "broadcast":
		src, err := parseNode(hb, args, 1)
		if err != nil {
			return err
		}
		res, _, err := broadcast.TwoPhase(hb, src)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "two-phase broadcast from %s: %d rounds (diameter %d), %d messages, %d nodes reached\n",
			hb.VertexLabel(src), res.Rounds, hb.DiameterFormula(), res.Messages, res.Reached)
		return nil
	case "embed":
		return doEmbed(w, hb, args)
	case "decompose":
		decompose(w, hb)
		return nil
	case "cut":
		return cuts(w, hb)
	default:
		return usagef("unknown command %q", cmd)
	}
}

// doEmbed runs one of the Section 4 embeddings and verifies it.
func doEmbed(w io.Writer, hb *core.HyperButterfly, args []string) error {
	if len(args) < 2 {
		return usagef("embed needs a kind: cycle, torus, tree or meshoftrees")
	}
	switch kind := args[1]; kind {
	case "cycle":
		k, err := parseInt(args, 2, "cycle length")
		if err != nil {
			return err
		}
		cyc, err := embed.EvenCycle(hb, k)
		if err != nil {
			return err
		}
		if err := graph.VerifyCycle(hb, cyc); err != nil {
			return err
		}
		fmt.Fprintf(w, "even cycle C(%d) embedded and verified (Lemma 2)\n", k)
	case "torus":
		n1, err := parseInt(args, 2, "torus dimension n1")
		if err != nil {
			return err
		}
		k, err := parseInt(args, 3, "torus multiplier k")
		if err != nil {
			return err
		}
		tor, phi, err := embed.TorusKN(hb, n1, k)
		if err != nil {
			return err
		}
		if err := graph.VerifyEmbedding(tor, hb, phi); err != nil {
			return err
		}
		fmt.Fprintf(w, "torus M(%d,%d) embedded and verified\n", tor.N1, tor.N2)
	case "tree":
		levels, phi, err := embed.BinaryTree(hb)
		if err != nil {
			return err
		}
		if err := graph.VerifyEmbedding(graph.CompleteBinaryTree{Levels: levels}, hb, phi); err != nil {
			return err
		}
		fmt.Fprintf(w, "complete binary tree T(%d) embedded and verified; root %s\n",
			levels, hb.VertexLabel(phi[0]))
	case "meshoftrees":
		p, err := parseInt(args, 2, "mesh exponent p")
		if err != nil {
			return err
		}
		q, err := parseInt(args, 3, "mesh exponent q")
		if err != nil {
			return err
		}
		mt, phi, err := embed.MeshOfTrees(hb, p, q)
		if err != nil {
			return err
		}
		if err := graph.VerifyEmbedding(mt, hb, phi); err != nil {
			return err
		}
		fmt.Fprintf(w, "mesh of trees MT(2^%d, 2^%d) embedded and verified (Theorem 4)\n", p, q)
	default:
		return usagef("unknown embedding %q", kind)
	}
	return nil
}

// decompose prints the Remark 5 partitions.
func decompose(w io.Writer, hb *core.HyperButterfly) {
	cubes := hb.HypercubePartition()
	bfs := hb.ButterflyPartition()
	fmt.Fprintf(w, "Remark 5 decompositions of HB(%d,%d):\n", hb.M(), hb.N())
	fmt.Fprintf(w, "  %d disjoint sub-hypercubes H_%d (one per butterfly label), e.g. labels of (H_m, identity):\n",
		len(cubes), hb.M())
	for _, v := range cubes[hb.Butterfly().Identity()] {
		fmt.Fprintf(w, "    %s\n", hb.VertexLabel(v))
	}
	fmt.Fprintf(w, "  %d disjoint sub-butterflies B_%d (one per hypercube label); (0…0, B_n) has %d nodes\n",
		len(bfs), hb.N(), len(bfs[0]))
}

// cuts prints the constructive bisections of the layout module.
func cuts(w io.Writer, hb *core.HyperButterfly) error {
	fmt.Fprintf(w, "constructive bisections of HB(%d,%d) (VLSI layout bounds):\n", hb.M(), hb.N())
	if hb.M() > 0 {
		c, err := layout.HypercubeDimCut(hb, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  hypercube dimension cut: %d/%d nodes, %d crossing edges (formula %d)\n",
			c.SizeA, c.SizeB, c.CrossEdges, layout.DimCutWidthFormula(hb.M(), hb.N()))
	}
	c, err := layout.ButterflyLevelCut(hb)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  butterfly level cut:     %d/%d nodes, %d crossing edges", c.SizeA, c.SizeB, c.CrossEdges)
	if hb.N()%2 == 0 {
		fmt.Fprintf(w, " (formula %d)", layout.LevelCutWidthFormula(hb.M(), hb.N()))
	}
	fmt.Fprintln(w)
	if width, name, err := layout.BisectionUpperBound(hb); err == nil {
		fmt.Fprintf(w, "  bisection width <= %d via %s\n", width, name)
	}
	return nil
}

// parseInt reads a required integer argument; what names it in errors.
func parseInt(args []string, i int, what string) (int, error) {
	if i >= len(args) {
		return 0, usagef("missing %s argument", what)
	}
	v, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, usagef("%s %q is not an integer", what, args[i])
	}
	return v, nil
}

func info(w io.Writer, hb *core.HyperButterfly) {
	fmt.Fprintf(w, "HB(%d,%d)\n", hb.M(), hb.N())
	fmt.Fprintf(w, "  nodes            %d  (n·2^(m+n))\n", hb.Order())
	fmt.Fprintf(w, "  edges            %d  ((m+4)·n·2^(m+n-1))\n", hb.EdgeCountFormula())
	fmt.Fprintf(w, "  degree           %d  (m+4, regular Cayley graph)\n", hb.Degree())
	fmt.Fprintf(w, "  diameter         %d  (m+floor(3n/2))\n", hb.DiameterFormula())
	fmt.Fprintf(w, "  fault tolerance  %d  (m+4, maximal)\n", hb.ConnectivityFormula())
}

func verify(w io.Writer, hb *core.HyperButterfly) error {
	d := hb.Dense()
	ok := true
	check := func(name string, got, want int) {
		status := "ok"
		if got != want {
			status = "MISMATCH"
			ok = false
		}
		fmt.Fprintf(w, "  %-28s measured %-8d expected %-8d %s\n", name, got, want, status)
	}
	fmt.Fprintf(w, "verifying HB(%d,%d) against the paper:\n", hb.M(), hb.N())
	check("nodes (Theorem 2)", d.Order(), hb.Order())
	check("edges (Theorem 2)", d.EdgeCount(), hb.EdgeCountFormula())
	st := graph.Degrees(d)
	check("degree min (Theorem 2)", st.Min, hb.Degree())
	check("degree max (Theorem 2)", st.Max, hb.Degree())
	ecc, _ := d.EccentricityScratch(hb.Identity(), graph.NewScratch(d.Order()))
	check("diameter (Theorem 3)", ecc, hb.DiameterFormula())
	if d.Order() <= 8192 {
		check("connectivity (Corollary 1)", graph.ConnectivityVertexTransitive(d, 0), hb.ConnectivityFormula())
	} else {
		fmt.Fprintln(w, "  connectivity: instance too large for exact max-flow sweep; see tests for exact small-instance verification")
	}
	if !ok {
		return fmt.Errorf("verification found mismatches")
	}
	return nil
}

func route(w io.Writer, hb *core.HyperButterfly, u, v int) {
	fmt.Fprintf(w, "route %s -> %s (distance %d):\n", hb.VertexLabel(u), hb.VertexLabel(v), hb.Distance(u, v))
	moves := hb.RouteMoves(u, v)
	cur := u
	fmt.Fprintf(w, "  %s\n", hb.VertexLabel(cur))
	for _, mv := range moves {
		cur = hb.Apply(mv, cur)
		fmt.Fprintf(w, "  --%-3s--> %s\n", mv, hb.VertexLabel(cur))
	}
}

func paths(w io.Writer, hb *core.HyperButterfly, u, v int) error {
	ps, err := hb.DisjointPaths(u, v)
	if err != nil {
		return err
	}
	if err := graph.VerifyDisjointPaths(hb, u, v, ps); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d internally vertex-disjoint paths %d -> %d (Theorem 5), verified:\n", len(ps), u, v)
	for i, p := range ps {
		fmt.Fprintf(w, "  path %2d (length %2d): ", i+1, len(p)-1)
		for j, x := range p {
			if j > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, x)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func nodeB(hb *core.HyperButterfly, v int) int {
	_, b := hb.Decode(v)
	return b
}

// parseNode reads a required node-id argument, rejecting non-integers
// and out-of-range ids with a usage error instead of a raw strconv or
// index failure.
func parseNode(hb *core.HyperButterfly, args []string, i int) (int, error) {
	if i >= len(args) {
		return 0, usagef("missing node-id argument")
	}
	v, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, usagef("node id %q is not an integer", args[i])
	}
	if !hb.ValidNode(v) {
		return 0, usagef("node %d out of range [0,%d) for HB(%d,%d)", v, hb.Order(), hb.M(), hb.N())
	}
	return v, nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: hbnet [-m M] [-n N] <command>
commands:
  info                network parameters
  verify              re-verify the paper's theorems on this instance
  label <v>           two-part label of node v
  route <u> <v>       shortest route with generator sequence
  paths <u> <v>       the m+4 disjoint paths of Theorem 5
  broadcast <src>     structured broadcast statistics
  embed cycle <k>     embed + verify an even cycle (Lemma 2)
  embed torus <n1> <k> embed + verify M(n1, k*n)
  embed tree          embed + verify T(m+n-1)
  embed meshoftrees <p> <q>  embed + verify MT(2^p, 2^q) (Theorem 4)
  decompose           Remark 5 partitions
  cut                 constructive bisections (VLSI bounds)`)
}
