package graph

import "fmt"

// Ring is the cycle graph C(n) for n >= 3. It is both a test fixture and
// the building block of the wrap-around meshes of Section 4.
type Ring struct{ N int }

// Order returns the number of ring vertices.
func (r Ring) Order() int { return r.N }

// AppendNeighbors implements Graph.
func (r Ring) AppendNeighbors(v int, buf []int) []int {
	if r.N < 3 {
		panic(fmt.Sprintf("graph: Ring of %d vertices is not a cycle", r.N))
	}
	return append(buf, (v+1)%r.N, (v+r.N-1)%r.N)
}

// Path is the path graph P(n) on n vertices.
type Path struct{ N int }

// Order returns the number of path vertices.
func (p Path) Order() int { return p.N }

// AppendNeighbors implements Graph.
func (p Path) AppendNeighbors(v int, buf []int) []int {
	if v > 0 {
		buf = append(buf, v-1)
	}
	if v < p.N-1 {
		buf = append(buf, v+1)
	}
	return buf
}

// Complete is the complete graph K(n).
type Complete struct{ N int }

// Order returns n.
func (k Complete) Order() int { return k.N }

// AppendNeighbors implements Graph.
func (k Complete) AppendNeighbors(v int, buf []int) []int {
	for w := 0; w < k.N; w++ {
		if w != v {
			buf = append(buf, w)
		}
	}
	return buf
}

// Torus is the wrap-around mesh M(n1,n2) = C(n1) □ C(n2) of Section 4.
// Vertex (i,j) is encoded as i*N2 + j.
type Torus struct{ N1, N2 int }

// Order returns n1·n2.
func (t Torus) Order() int { return t.N1 * t.N2 }

// Encode maps torus coordinates to a vertex id.
func (t Torus) Encode(i, j int) int { return i*t.N2 + j }

// Decode splits a vertex id into torus coordinates.
func (t Torus) Decode(v int) (i, j int) { return v / t.N2, v % t.N2 }

// AppendNeighbors implements Graph.
func (t Torus) AppendNeighbors(v int, buf []int) []int {
	i, j := t.Decode(v)
	return append(buf,
		t.Encode((i+1)%t.N1, j),
		t.Encode((i+t.N1-1)%t.N1, j),
		t.Encode(i, (j+1)%t.N2),
		t.Encode(i, (j+t.N2-1)%t.N2),
	)
}
