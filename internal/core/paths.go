package core

import (
	"fmt"

	"repro/internal/graph"
)

// Theorem 5: between any two nodes of HB(m,n) there exist m+4 pairwise
// internally vertex-disjoint paths, hence vertex connectivity m+4
// (Corollary 1) and maximal fault tolerance.
//
// All three cases of the proof are constructed from the factor path
// families alone: the m Saad–Schultz paths of H_m and the 4 paths of
// B_n. Cases 1 and 2 follow the paper verbatim. In case 3 (both label
// parts differ) the paper's two staircase families collide where the
// first cube step of one family meets the first butterfly step of the
// other, so case 3 is built differently (disjointCase3): two two-phase
// routes over the shortest factor paths P_1 and Q_1, and every other
// path crosses one factor along P_1 or Q_1 in its own column or layer.
// The product adjacency is never consulted; DESIGN.md §4 gives the
// disjointness argument.

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
	if !hb.ValidNode(u) || !hb.ValidNode(v) {
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
		return hb.disjointCase3(hu, bu, hv, bv)
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
		paths = append(paths, hb.appendCubeRun(make([]Node, 0, len(cp)), cp, b))
	}
	route := hb.cube.Route(hu, hv)
	for _, bj := range hb.bf.AppendNeighbors(b, nil) {
		path := make([]Node, 0, len(route)+2)
		path = append(path, hb.Encode(hu, b))
		path = hb.appendCubeRun(path, route, bj)
		paths = append(paths, append(path, hb.Encode(hv, b)))
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
		paths = append(paths, hb.appendBfRun(make([]Node, 0, len(bp)), h, bp))
	}
	route := hb.bf.Route(bu, bv)
	for i := 0; i < hb.m; i++ {
		path := make([]Node, 0, len(route)+2)
		path = append(path, hb.Encode(h, bu))
		path = hb.appendBfRun(path, h^(1<<uint(i)), route)
		paths = append(paths, append(path, hb.Encode(h, bv)))
	}
	return paths, nil
}

// disjointCase3 handles h != h', b != b' (Case 3 of Theorem 5). Let
// P_1..P_m be the cube paths h->h' and Q_1..Q_4 the butterfly paths
// b->b', P_1 and Q_1 the shortest of each, a_i = P_i[1], c_j = Q_j[1]:
//   - A_1 runs P_1 in layer b, then Q_1 in column h';
//   - B_1 runs Q_1 in column h, then P_1 in layer b';
//   - A_i (i >= 2) steps to (a_i, b), runs Q_1 in column a_i, then
//     finishes P_i in layer b';
//   - B_j (j >= 2) steps to (h, c_j), runs P_1 in layer c_j, then
//     finishes Q_j in column h'.
//
// Each A_i (i >= 2) owns column a_i, which is off P_1, and P_i's
// interior in layer b'; each B_j (j >= 2) owns layer c_j, off Q_1, and
// Q_j's interior in column h'. A shortest factor path is the direct
// edge whenever the endpoints are adjacent, so no a_i (i >= 2) is h'
// and no c_j (j >= 2) is b'. The paths come out in factor order: the
// cube family, then the butterfly family.
func (hb *HyperButterfly) disjointCase3(hu, bu, hv, bv int) ([][]Node, error) {
	cubePaths, err := hb.cube.DisjointPaths(hu, hv)
	if err != nil {
		return nil, fmt.Errorf("core: case 3: %w", err)
	}
	bfPaths, err := hb.bf.DisjointPaths(bu, bv)
	if err != nil {
		return nil, fmt.Errorf("core: case 3: %w", err)
	}
	p1, q1 := shortest(cubePaths), shortest(bfPaths)
	P, Q := cubePaths[p1], bfPaths[q1]
	u := hb.Encode(hu, bu)
	paths := make([][]Node, 0, hb.m+4)
	for i, pi := range cubePaths {
		var path []Node
		if i == p1 {
			path = make([]Node, 0, len(P)+len(Q)-1)
			path = hb.appendCubeRun(path, P, bu)
			path = hb.appendBfRun(path, hv, Q[1:])
		} else {
			path = make([]Node, 0, len(Q)+len(pi)-1)
			path = append(path, u)
			path = hb.appendBfRun(path, pi[1], Q)
			path = hb.appendCubeRun(path, pi[2:], bv)
		}
		paths = append(paths, path)
	}
	for j, qj := range bfPaths {
		var path []Node
		if j == q1 {
			path = make([]Node, 0, len(Q)+len(P)-1)
			path = hb.appendBfRun(path, hu, Q)
			path = hb.appendCubeRun(path, P[1:], bv)
		} else {
			path = make([]Node, 0, len(P)+len(qj)-1)
			path = append(path, u)
			path = hb.appendCubeRun(path, P, qj[1])
			path = hb.appendBfRun(path, hv, qj[2:])
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// shortest returns the index of the first shortest path in paths.
func shortest(paths [][]int) int {
	best := 0
	for i, p := range paths {
		if len(p) < len(paths[best]) {
			best = i
		}
	}
	return best
}

// appendCubeRun appends the hypercube labels xs at butterfly label b.
func (hb *HyperButterfly) appendCubeRun(dst []Node, xs []int, b int) []Node {
	for _, x := range xs {
		dst = append(dst, x*hb.bSize+b)
	}
	return dst
}

// appendBfRun appends the butterfly labels ys at hypercube label h.
func (hb *HyperButterfly) appendBfRun(dst []Node, h int, ys []int) []Node {
	base := h * hb.bSize
	for _, y := range ys {
		dst = append(dst, base+y)
	}
	return dst
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
