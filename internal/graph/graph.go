// Package graph is a small toolkit for finite undirected graphs with
// vertices indexed 0..Order()-1.
//
// Topology packages (hypercube, butterfly, hyper-deBruijn, hyper-butterfly)
// expose their structure through the Graph interface; the algorithms here
// (BFS, diameter, connectivity via max-flow, Menger disjoint paths,
// Cartesian products, embedding verifiers) operate on that interface so
// that every analytical claim in the paper can be checked against the
// actual constructed object rather than trusted.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a finite undirected graph on vertices 0..Order()-1.
//
// AppendNeighbors appends the neighbors of v to buf and returns the
// extended slice; implementations must not retain buf. Neighbor order is
// implementation-defined but must be deterministic. Multi-edges and
// self-loops are permitted (the de Bruijn graph has both); algorithms in
// this package treat repeated neighbors as a single edge unless stated.
type Graph interface {
	Order() int
	AppendNeighbors(v int, buf []int) []int
}

// Named is implemented by graphs that can render a vertex label in the
// paper's notation (e.g. "(011; t2 t1' t0)" for a hyper-butterfly node).
type Named interface {
	VertexLabel(v int) string
}

// Dense is an explicit adjacency-list graph in compressed (CSR) form. It
// is the concrete result of materialising any Graph and the input to the
// heavier algorithms (flow, exhaustive diameter).
type Dense struct {
	offsets []int32 // len Order()+1
	adj     []int32
}

// Build materialises g into a Dense graph.
func Build(g Graph) *Dense {
	n := g.Order()
	d := &Dense{offsets: make([]int32, n+1)}
	var buf []int
	total := 0
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(v, buf[:0])
		total += len(buf)
	}
	d.adj = make([]int32, 0, total)
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(v, buf[:0])
		sort.Ints(buf)
		for _, w := range buf {
			if w < 0 || w >= n {
				panic(fmt.Sprintf("graph: neighbor %d of %d out of range [0,%d)", w, v, n))
			}
			d.adj = append(d.adj, int32(w))
		}
		d.offsets[v+1] = int32(len(d.adj))
	}
	return d
}

// NewDense builds a Dense graph directly from an adjacency map; useful in
// tests. Edges are given once as pairs; both directions are added.
func NewDense(n int, edges [][2]int) *Dense {
	deg := make([]int32, n)
	for _, e := range edges {
		if e[0] == e[1] {
			deg[e[0]]++ // a self-loop contributes a single adjacency entry
			continue
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	d := &Dense{offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		d.offsets[v+1] = d.offsets[v] + deg[v]
	}
	d.adj = make([]int32, d.offsets[n])
	fill := make([]int32, n)
	add := func(u, w int) {
		d.adj[d.offsets[u]+fill[u]] = int32(w)
		fill[u]++
	}
	for _, e := range edges {
		if e[0] == e[1] {
			add(e[0], e[1])
			continue
		}
		add(e[0], e[1])
		add(e[1], e[0])
	}
	for v := 0; v < n; v++ {
		row := d.adj[d.offsets[v]:d.offsets[v+1]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	return d
}

// Order returns the number of vertices.
func (d *Dense) Order() int { return len(d.offsets) - 1 }

// AppendNeighbors implements Graph.
func (d *Dense) AppendNeighbors(v int, buf []int) []int {
	for _, w := range d.adj[d.offsets[v]:d.offsets[v+1]] {
		buf = append(buf, int(w))
	}
	return buf
}

// Neighbors returns the neighbor row of v. The returned slice aliases the
// internal storage and must not be modified.
func (d *Dense) Neighbors(v int) []int32 { return d.adj[d.offsets[v]:d.offsets[v+1]] }

// Degree returns the number of adjacency entries of v (self-loops count
// once, multi-edges count multiply).
func (d *Dense) Degree(v int) int { return int(d.offsets[v+1] - d.offsets[v]) }

// EdgeCount returns the number of undirected edges. Each self-loop counts
// as one edge; multi-edges count multiply.
func (d *Dense) EdgeCount() int {
	loops := 0
	for v := 0; v < d.Order(); v++ {
		for _, w := range d.Neighbors(v) {
			if int(w) == v {
				loops++
			}
		}
	}
	return (len(d.adj)-loops)/2 + loops
}

// HasEdge reports whether u and w are adjacent (binary search on the
// sorted row).
func (d *Dense) HasEdge(u, w int) bool {
	row := d.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(w) })
	return i < len(row) && row[i] == int32(w)
}

// DegreeStats summarises the degree sequence of a graph.
type DegreeStats struct {
	Min, Max int
	Regular  bool
	// Histogram maps degree -> count.
	Histogram map[int]int
}

// Degrees computes degree statistics for g. Self-loops count once,
// multi-edges multiply, matching Dense.Degree.
func Degrees(g Graph) DegreeStats {
	n := g.Order()
	st := DegreeStats{Min: -1, Histogram: make(map[int]int)}
	var buf []int
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(v, buf[:0])
		deg := len(buf)
		st.Histogram[deg]++
		if st.Min == -1 || deg < st.Min {
			st.Min = deg
		}
		if deg > st.Max {
			st.Max = deg
		}
	}
	st.Regular = n == 0 || st.Min == st.Max
	return st
}

// CheckUndirected verifies that the adjacency relation of g is symmetric
// and in-range; it returns a descriptive error on the first violation.
func CheckUndirected(g Graph) error {
	n := g.Order()
	var buf, buf2 []int
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(v, buf[:0])
		for _, w := range buf {
			if w < 0 || w >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			buf2 = g.AppendNeighbors(w, buf2[:0])
			back := 0
			for _, x := range buf2 {
				if x == v {
					back++
				}
			}
			if back == 0 {
				return fmt.Errorf("graph: edge %d->%d has no reverse", v, w)
			}
		}
	}
	return nil
}
