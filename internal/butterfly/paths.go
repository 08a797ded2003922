package butterfly

import (
	"fmt"

	"repro/internal/graph"
)

// Dense returns the materialised adjacency of b, building it on first
// use and keeping it with b, so it is freed with the instance. Safe for
// concurrent use.
func (b *Butterfly) Dense() *graph.Dense {
	b.denseOnce.Do(func() { b.dense = graph.Build(b) })
	return b.dense
}

// DisjointPaths returns 4 pairwise internally vertex-disjoint paths from
// u to v (u != v), the maximum possible since B_n is 4-regular with
// vertex connectivity 4 (Remark 1). The paths are extracted from a
// unit-capacity max-flow (Menger), so the count is exact by
// construction; the paper's Theorem 5 composes these with hypercube
// disjoint paths to reach connectivity m+4 in HB(m,n).
func (b *Butterfly) DisjointPaths(u, v Node) ([][]Node, error) {
	if u == v {
		return nil, fmt.Errorf("butterfly: DisjointPaths endpoints equal (%d)", u)
	}
	if u < 0 || u >= b.size || v < 0 || v >= b.size {
		return nil, fmt.Errorf("butterfly: endpoints %d,%d out of range [0,%d)", u, v, b.size)
	}
	paths, err := graph.DisjointPaths(b.Dense(), u, v, 4)
	if err != nil {
		return nil, fmt.Errorf("butterfly: %w", err)
	}
	if len(paths) != 4 {
		return nil, fmt.Errorf("butterfly: found %d disjoint paths between %d and %d, want 4", len(paths), u, v)
	}
	return paths, nil
}
