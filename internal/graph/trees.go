package graph

// CompleteBinaryTree is the complete binary tree T(k) of the paper's
// Section 4: k levels and 2^k - 1 vertices in heap order (root 0,
// children of i at 2i+1 and 2i+2).
type CompleteBinaryTree struct{ Levels int }

// Order returns 2^Levels - 1.
func (t CompleteBinaryTree) Order() int {
	if t.Levels < 1 {
		return 0
	}
	return 1<<uint(t.Levels) - 1
}

// AppendNeighbors implements Graph.
func (t CompleteBinaryTree) AppendNeighbors(v int, buf []int) []int {
	n := t.Order()
	if v > 0 {
		buf = append(buf, (v-1)/2)
	}
	if l := 2*v + 1; l < n {
		buf = append(buf, l)
	}
	if r := 2*v + 2; r < n {
		buf = append(buf, r)
	}
	return buf
}

// MeshOfTrees is the mesh of trees MT(2^p, 2^q) of Theorem 4: a 2^p x
// 2^q grid of leaves, a complete binary tree over every row and one over
// every column; row and column trees are disjoint except at the shared
// leaves. It is a subgraph of T(p+1) x T(q+1) (Lemma 4), which is how
// the embedding into HB(m,n) is realised.
//
// Vertices are encoded as pairs of heap indices (i,j) of T(p+1) x
// T(q+1): id = i*(2^(q+1)-1) + j. Only pairs where at least one of i, j
// is a leaf of its tree are kept as mesh-of-trees vertices; the
// remaining pairs are isolated padding (degree 0) so that the vertex
// numbering matches the product — callers use Contains to filter.
type MeshOfTrees struct{ P, Q int }

// rows returns 2^(p+1)-1, the order of the row tree T(p+1).
func (mt MeshOfTrees) rows() int { return 1<<uint(mt.P+1) - 1 }

// cols returns 2^(q+1)-1, the order of the column tree T(q+1).
func (mt MeshOfTrees) cols() int { return 1<<uint(mt.Q+1) - 1 }

// Order returns the order of the ambient product T(p+1) x T(q+1).
func (mt MeshOfTrees) Order() int { return mt.rows() * mt.cols() }

// Encode maps a (row-tree index, column-tree index) pair to a vertex id.
func (mt MeshOfTrees) Encode(i, j int) int { return i*mt.cols() + j }

// Decode splits a vertex id.
func (mt MeshOfTrees) Decode(v int) (i, j int) { return v / mt.cols(), v % mt.cols() }

// leafRow reports whether i is a leaf of T(p+1) (heap indices >= 2^p-1).
func (mt MeshOfTrees) leafRow(i int) bool { return i >= 1<<uint(mt.P)-1 }

func (mt MeshOfTrees) leafCol(j int) bool { return j >= 1<<uint(mt.Q)-1 }

// Contains reports whether v is an actual mesh-of-trees vertex: a grid
// leaf (both coordinates leaves), a row-tree internal vertex (row
// internal, column leaf) or a column-tree internal vertex (row leaf,
// column internal).
func (mt MeshOfTrees) Contains(v int) bool {
	i, j := mt.Decode(v)
	return mt.leafRow(i) || mt.leafCol(j)
}

// AppendNeighbors implements Graph. Row trees connect vertices that
// share a column leaf and are parent/child in the row tree; column trees
// symmetrically.
func (mt MeshOfTrees) AppendNeighbors(v int, buf []int) []int {
	i, j := mt.Decode(v)
	if !mt.Contains(v) {
		return buf
	}
	if mt.leafCol(j) {
		// Row-tree edges at this column.
		rt := CompleteBinaryTree{Levels: mt.P + 1}
		var rbuf []int
		rbuf = rt.AppendNeighbors(i, rbuf)
		for _, ni := range rbuf {
			buf = append(buf, mt.Encode(ni, j))
		}
	}
	if mt.leafRow(i) {
		ct := CompleteBinaryTree{Levels: mt.Q + 1}
		var cbuf []int
		cbuf = ct.AppendNeighbors(j, cbuf)
		for _, nj := range cbuf {
			buf = append(buf, mt.Encode(i, nj))
		}
	}
	return buf
}
