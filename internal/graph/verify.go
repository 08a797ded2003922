package graph

import "fmt"

// This file holds the verifiers that back every embedding claim in
// Section 4 of the paper. An embedding is never trusted: the constructive
// modules return explicit vertex sequences or maps and the experiments
// pass them through these checks.

// adjacent reports whether w appears among the neighbors of v in g.
func adjacent(g Graph, v, w int, buf []int) ([]int, bool) {
	buf = g.AppendNeighbors(v, buf[:0])
	for _, x := range buf {
		if x == w {
			return buf, true
		}
	}
	return buf, false
}

// VerifyPath checks that p is a walk on edges of g visiting distinct
// vertices.
func VerifyPath(g Graph, p []int) error {
	seen := make(map[int]bool, len(p))
	var buf []int
	var ok bool
	for i, v := range p {
		if v < 0 || v >= g.Order() {
			return fmt.Errorf("graph: path vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("graph: path revisits vertex %d", v)
		}
		seen[v] = true
		if i > 0 {
			if buf, ok = adjacent(g, p[i-1], v, buf); !ok {
				return fmt.Errorf("graph: path step %d uses non-edge %d-%d", i, p[i-1], v)
			}
		}
	}
	return nil
}

// VerifyCycle checks that c is a simple cycle of g: distinct vertices,
// every consecutive pair (including last-first) an edge, length >= 3.
func VerifyCycle(g Graph, c []int) error {
	if len(c) < 3 {
		return fmt.Errorf("graph: cycle of length %d is degenerate", len(c))
	}
	if err := VerifyPath(g, c); err != nil {
		return err
	}
	if _, ok := adjacent(g, c[len(c)-1], c[0], nil); !ok {
		return fmt.Errorf("graph: cycle does not close: %d-%d is not an edge", c[len(c)-1], c[0])
	}
	return nil
}

// VerifyEmbedding checks that phi is a one-to-one map from the vertices
// of guest into host that maps every guest edge onto a host edge (i.e.
// guest is a subgraph of host under phi, the notion of embedding used
// throughout Section 4). phi must have length guest.Order().
func VerifyEmbedding(guest, host Graph, phi []int) error {
	if len(phi) != guest.Order() {
		return fmt.Errorf("graph: embedding maps %d vertices, guest has %d", len(phi), guest.Order())
	}
	used := make(map[int]int, len(phi))
	for v, hv := range phi {
		if hv < 0 || hv >= host.Order() {
			return fmt.Errorf("graph: image %d of guest vertex %d out of host range", hv, v)
		}
		if prev, dup := used[hv]; dup {
			return fmt.Errorf("graph: guest vertices %d and %d collide on host vertex %d", prev, v, hv)
		}
		used[hv] = v
	}
	var buf, hbuf []int
	for v := 0; v < guest.Order(); v++ {
		buf = guest.AppendNeighbors(v, buf[:0])
		for _, w := range buf {
			if w == v {
				continue // guest self-loops carry no adjacency obligation
			}
			ok := false
			hbuf = host.AppendNeighbors(phi[v], hbuf[:0])
			for _, hw := range hbuf {
				if hw == phi[w] {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("graph: guest edge %d-%d maps to host non-edge %d-%d", v, w, phi[v], phi[w])
			}
		}
	}
	return nil
}

// VerifyGeneratorAction checks the Cayley-graph sanity conditions of
// Remark 3 on a vertex set explored from base: every generator is a
// fixed-point-free permutation step (gen(v) != v) and distinct generators
// lead to distinct neighbors. gens[i] must give the i-th neighbor in the
// order AppendNeighbors emits them.
func VerifyGeneratorAction(g Graph, degree int) error {
	n := g.Order()
	var buf []int
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(v, buf[:0])
		if len(buf) != degree {
			return fmt.Errorf("graph: vertex %d has degree %d, want %d", v, len(buf), degree)
		}
		seen := make(map[int]bool, degree)
		for _, w := range buf {
			if w == v {
				return fmt.Errorf("graph: generator fixes vertex %d", v)
			}
			if seen[w] {
				return fmt.Errorf("graph: two generators agree on vertex %d (neighbor %d)", v, w)
			}
			seen[w] = true
		}
	}
	return nil
}

// VerifyDisjointPaths checks that paths is a set of pairwise internally
// vertex-disjoint s-t paths in g, each a valid walk on edges of g with
// distinct internal vertices, and at most one of them the direct edge
// (two copies of it share no internal vertex but are one path). It
// returns nil if all constraints hold.
func VerifyDisjointPaths(g Graph, s, t int, paths [][]int) error {
	seen := make(map[int]int) // internal vertex -> path index
	direct := -1              // index of the direct s-t path, if any
	var buf []int
	for pi, p := range paths {
		if len(p) == 0 || p[0] != s || p[len(p)-1] != t {
			return fmt.Errorf("graph: path %d does not run %d..%d: %v", pi, s, t, p)
		}
		if len(p) == 2 {
			if direct >= 0 {
				return fmt.Errorf("graph: paths %d and %d are both the direct edge %d-%d", direct, pi, s, t)
			}
			direct = pi
		}
		inPath := make(map[int]bool, len(p))
		for i, v := range p {
			if inPath[v] {
				return fmt.Errorf("graph: path %d revisits vertex %d", pi, v)
			}
			inPath[v] = true
			if i > 0 {
				buf = g.AppendNeighbors(p[i-1], buf[:0])
				ok := false
				for _, w := range buf {
					if w == v {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("graph: path %d uses non-edge %d-%d", pi, p[i-1], v)
				}
			}
			if v != s && v != t {
				if other, dup := seen[v]; dup {
					return fmt.Errorf("graph: paths %d and %d share internal vertex %d", other, pi, v)
				}
				seen[v] = pi
			}
		}
	}
	return nil
}
