package core

import (
	"fmt"

	"repro/internal/graph"
)

// Theorem 5: between any two nodes of HB(m,n) there exist m+4 pairwise
// internally vertex-disjoint paths, hence vertex connectivity m+4
// (Corollary 1) and maximal fault tolerance.
//
// Cases 1 and 2 of the paper's constructive proof are implemented
// verbatim — their disjointness argument is airtight because the two
// path families live in different sub-hypercubes/sub-butterflies. In
// case 3 (both label parts differ) the paper asserts disjointness of the
// naive two-phase paths, but with shared phase routes the m-family and
// 4-family necessarily collide where the first hypercube step of one
// family meets the first butterfly step of the other (every cube route
// out of h passes a neighbor (h^(i), ·) and every butterfly route out of
// b passes a neighbor (·, b^(j)), so the corner (h^(i), b^(j)) is hit
// twice). We therefore realise case 3 by exact Menger extraction from a
// unit-capacity max-flow, which yields the same m+4 count with a
// correctness guarantee; the substitution is recorded in DESIGN.md.

// Dense returns the materialised adjacency of hb, building it on first
// use and keeping it with hb, so it is freed with the instance. Safe
// for concurrent use.
func (hb *HyperButterfly) Dense() *graph.Dense {
	hb.denseOnce.Do(func() { hb.dense = graph.Build(hb) })
	return hb.dense
}

// DisjointPaths returns m+4 pairwise internally vertex-disjoint paths
// from u to v (Theorem 5). Every returned path set is checkable with
// graph.VerifyDisjointPaths; tests do so for thousands of pairs.
func (hb *HyperButterfly) DisjointPaths(u, v Node) ([][]Node, error) {
	if u == v {
		return nil, fmt.Errorf("core: DisjointPaths endpoints equal (%d)", u)
	}
	if u < 0 || u >= hb.Order() || v < 0 || v >= hb.Order() {
		return nil, fmt.Errorf("core: endpoints %d,%d out of range [0,%d)", u, v, hb.Order())
	}
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	switch {
	case bu == bv:
		return hb.disjointCase1(hu, hv, bu)
	case hu == hv:
		return hb.disjointCase2(hu, bu, bv)
	default:
		return hb.disjointCase3(u, v)
	}
}

// disjointCase1 handles h != h', b = b' (Case 1 of Theorem 5):
//   - m paths inside the sub-hypercube (H_m, b);
//   - 4 paths that each step to a butterfly neighbor b^(j), cross the
//     sub-hypercube (H_m, b^(j)), and step back.
//
// The m hypercube paths stay at butterfly label b; each of the 4 detour
// paths keeps a distinct interior label b^(j) != b, so all m+4 are
// internally disjoint. Path lengths: at most dist+2 for the first family
// (Saad–Schultz) and dist+2 for the second, matching the bounds quoted
// in the proof.
func (hb *HyperButterfly) disjointCase1(hu, hv, b int) ([][]Node, error) {
	paths := make([][]Node, 0, hb.m+4)
	cubePaths, err := hb.cube.DisjointPaths(hu, hv)
	if err != nil {
		return nil, fmt.Errorf("core: case 1: %w", err)
	}
	for _, cp := range cubePaths {
		paths = append(paths, hb.liftCubePath(cp, b))
	}
	var nbuf []int
	nbuf = hb.bf.AppendNeighbors(b, nbuf)
	for _, bj := range nbuf {
		path := []Node{hb.Encode(hu, b)}
		for _, x := range hb.cube.Route(hu, hv) {
			path = append(path, hb.Encode(x, bj))
		}
		path = append(path, hb.Encode(hv, b))
		paths = append(paths, path)
	}
	return paths, nil
}

// disjointCase2 handles h = h', b != b' (Case 2 of Theorem 5):
//   - 4 paths inside the sub-butterfly (h, B_n);
//   - m paths that each step to a hypercube neighbor h^(i), cross the
//     sub-butterfly (h^(i), B_n), and step back.
func (hb *HyperButterfly) disjointCase2(h, bu, bv int) ([][]Node, error) {
	paths := make([][]Node, 0, hb.m+4)
	bfPaths, err := hb.bf.DisjointPaths(bu, bv)
	if err != nil {
		return nil, fmt.Errorf("core: case 2: %w", err)
	}
	for _, bp := range bfPaths {
		paths = append(paths, hb.liftButterflyPath(h, bp))
	}
	for i := 0; i < hb.m; i++ {
		hi := h ^ (1 << uint(i))
		path := []Node{hb.Encode(h, bu)}
		for _, y := range hb.bf.Route(bu, bv) {
			path = append(path, hb.Encode(hi, y))
		}
		path = append(path, hb.Encode(h, bv))
		paths = append(paths, path)
	}
	return paths, nil
}

// disjointCase3 handles the general case via exact Menger extraction
// (see the file comment for why the paper's sketch is not implemented
// literally).
func (hb *HyperButterfly) disjointCase3(u, v Node) ([][]Node, error) {
	want := hb.m + 4
	paths, err := graph.DisjointPaths(hb.Dense(), u, v, want)
	if err != nil {
		return nil, fmt.Errorf("core: case 3: %w", err)
	}
	if len(paths) != want {
		return nil, fmt.Errorf("core: case 3: found %d disjoint paths between %d and %d, want %d",
			len(paths), u, v, want)
	}
	return paths, nil
}

// liftCubePath maps a hypercube path into HB at a fixed butterfly label.
func (hb *HyperButterfly) liftCubePath(cp []int, b int) []Node {
	out := make([]Node, len(cp))
	for i, h := range cp {
		out[i] = hb.Encode(h, b)
	}
	return out
}

// liftButterflyPath maps a butterfly path into HB at a fixed hypercube
// label.
func (hb *HyperButterfly) liftButterflyPath(h int, bp []int) []Node {
	out := make([]Node, len(bp))
	for i, b := range bp {
		out[i] = hb.Encode(h, b)
	}
	return out
}

// Fan returns vertex-disjoint paths from src to each of the targets
// (disjoint except at src) — the node-to-set disjoint path problem, the
// one-to-many strengthening of Theorem 5 enabled by connectivity m+4:
// any set of at most m+4 targets admits a fan (Menger's fan lemma).
func (hb *HyperButterfly) Fan(src Node, targets []Node) ([][]Node, error) {
	if len(targets) > hb.Degree() {
		return nil, fmt.Errorf("core: fan of %d targets exceeds connectivity %d", len(targets), hb.Degree())
	}
	if src < 0 || src >= hb.Order() {
		return nil, fmt.Errorf("core: fan source %d out of range [0,%d)", src, hb.Order())
	}
	return graph.NodeToSetDisjointPaths(hb.Dense(), src, targets)
}
