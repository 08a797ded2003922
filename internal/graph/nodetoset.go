package graph

import "fmt"

// NodeToSetDisjointPaths returns paths from src to every target in
// targets that are pairwise vertex-disjoint except at src (the
// "node-to-set" disjoint path problem of the companion literature the
// paper cites — Latifi, Ko & Srimani for hypercubes). Such path sets
// exist whenever len(targets) <= kappa(G) by Menger's theorem
// (fan lemma); HB(m,n) therefore supports fans of size m+4.
//
// Implementation: the fan lemma's own reduction. A sink vertex n =
// d.Order() joined to every target turns the fan into len(targets)
// internally disjoint src-sink paths, which the Menger engine extracts
// (targets keep split capacity 1, so each ends exactly one path); the
// sink is then stripped from every path. Returns an error if some
// target cannot be reached disjointly.
func NodeToSetDisjointPaths(d *Dense, src int, targets []int) ([][]int, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	n := d.Order()
	isTarget := make([]bool, n)
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("graph: target %d out of range [0,%d)", t, n)
		}
		if t == src {
			return nil, fmt.Errorf("graph: source %d cannot be its own target", src)
		}
		if isTarget[t] {
			return nil, fmt.Errorf("graph: duplicate target %d", t)
		}
		isTarget[t] = true
	}
	paths, err := NewFlowScratch(d.withSink(isTarget, len(targets))).DisjointPaths(src, n, len(targets))
	if err != nil {
		return nil, err
	}
	if len(paths) != len(targets) {
		return nil, fmt.Errorf("graph: only %d of %d disjoint paths exist from %d", len(paths), len(targets), src)
	}
	for i, p := range paths {
		paths[i] = p[:len(p)-1]
	}
	return paths, nil
}

// withSink returns d plus one vertex, numbered d.Order(), adjacent to
// each of the k vertices v with isTarget[v]. Rows stay sorted: the new
// neighbour is larger than every existing one.
func (d *Dense) withSink(isTarget []bool, k int) *Dense {
	n := d.Order()
	g := &Dense{offsets: make([]int32, n+2), adj: make([]int32, 0, len(d.adj)+2*k)}
	sinkRow := make([]int32, 0, k)
	for v := 0; v < n; v++ {
		g.adj = append(g.adj, d.Neighbors(v)...)
		if isTarget[v] {
			g.adj = append(g.adj, int32(n))
			sinkRow = append(sinkRow, int32(v))
		}
		g.offsets[v+1] = int32(len(g.adj))
	}
	g.adj = append(g.adj, sinkRow...)
	g.offsets[n+1] = int32(len(g.adj))
	return g
}

// VerifyNodeToSetPaths checks that paths is a valid fan: path i runs
// from src to targets[i] (in some order covering all targets), each is
// a simple path on edges of g, and no vertex other than src appears in
// two paths.
func VerifyNodeToSetPaths(g Graph, src int, targets []int, paths [][]int) error {
	if len(paths) != len(targets) {
		return fmt.Errorf("graph: %d paths for %d targets", len(paths), len(targets))
	}
	remaining := make(map[int]bool, len(targets))
	for _, t := range targets {
		remaining[t] = true
	}
	seen := make(map[int]int)
	for pi, p := range paths {
		if len(p) < 2 || p[0] != src {
			return fmt.Errorf("graph: path %d does not start at %d: %v", pi, src, p)
		}
		end := p[len(p)-1]
		if !remaining[end] {
			return fmt.Errorf("graph: path %d ends at %d, not an unused target", pi, end)
		}
		delete(remaining, end)
		if err := VerifyPath(g, p); err != nil {
			return fmt.Errorf("graph: path %d: %w", pi, err)
		}
		for _, v := range p[1:] {
			if other, dup := seen[v]; dup {
				return fmt.Errorf("graph: paths %d and %d share vertex %d", other, pi, v)
			}
			seen[v] = pi
		}
	}
	return nil
}
