package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// Property-based tests (testing/quick) on the metric and group
// invariants of HB(m,n). Inputs are folded into the valid node range so
// every generated case is meaningful.

func quickConfig(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 2000,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func fold(hb *HyperButterfly, raw uint32) Node {
	return int(raw) % hb.Order()
}

// TestQuickMetricAxioms: Distance is a metric — identity, symmetry, and
// the triangle inequality (exercised through random triples).
func TestQuickMetricAxioms(t *testing.T) {
	hb := MustNew(3, 5)
	f := func(a, b, c uint32) bool {
		u, v, w := fold(hb, a), fold(hb, b), fold(hb, c)
		duv := hb.Distance(u, v)
		if (duv == 0) != (u == v) {
			return false
		}
		if duv != hb.Distance(v, u) {
			return false
		}
		return duv <= hb.Distance(u, w)+hb.Distance(w, v)
	}
	if err := quick.Check(f, quickConfig(35)); err != nil {
		t.Error(err)
	}
}

// TestQuickDistanceWithinDiameter: no pair exceeds the Theorem 3 bound.
func TestQuickDistanceWithinDiameter(t *testing.T) {
	hb := MustNew(4, 7)
	f := func(a, b uint32) bool {
		return hb.Distance(fold(hb, a), fold(hb, b)) <= hb.DiameterFormula()
	}
	if err := quick.Check(f, quickConfig(47)); err != nil {
		t.Error(err)
	}
}

// TestQuickRouteRealizesDistance: the generator route always lands on
// the destination in exactly Distance moves, and each move changes the
// node (no null steps).
func TestQuickRouteRealizesDistance(t *testing.T) {
	hb := MustNew(2, 6)
	f := func(a, b uint32) bool {
		u, v := fold(hb, a), fold(hb, b)
		moves := hb.RouteMoves(u, v)
		if len(moves) != hb.Distance(u, v) {
			return false
		}
		cur := u
		for _, mv := range moves {
			next := hb.Apply(mv, cur)
			if next == cur {
				return false
			}
			cur = next
		}
		return cur == v
	}
	if err := quick.Check(f, quickConfig(26)); err != nil {
		t.Error(err)
	}
}

// TestQuickEdgeDistance: adjacent nodes are exactly at distance 1 and
// generators change the node (Remark 3).
func TestQuickEdgeDistance(t *testing.T) {
	hb := MustNew(3, 4)
	moves := hb.Moves()
	f := func(a uint32, g uint8) bool {
		u := fold(hb, a)
		mv := moves[int(g)%len(moves)]
		w := hb.Apply(mv, u)
		return w != u && hb.Distance(u, w) == 1 && hb.Apply(mv.Inverse(), w) == u
	}
	if err := quick.Check(f, quickConfig(34)); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeEncode: label round trip over random nodes.
func TestQuickDecodeEncode(t *testing.T) {
	hb := MustNew(5, 4)
	f := func(a uint32) bool {
		v := fold(hb, a)
		h, b := hb.Decode(v)
		return hb.Encode(h, b) == v
	}
	if err := quick.Check(f, quickConfig(54)); err != nil {
		t.Error(err)
	}
}

// TestEdgeConnectivityMatchesDegree: for the regular networks here the
// edge connectivity equals the degree — a strictly stronger statement
// than Corollary 1 for links instead of nodes.
func TestEdgeConnectivityMatchesDegree(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {1, 3}, {2, 3}} {
		hb := MustNew(dims[0], dims[1])
		if got := graph.EdgeConnectivity(hb.Dense(), 0); got != hb.Degree() {
			t.Errorf("HB%v: edge connectivity %d, want %d", dims, got, hb.Degree())
		}
	}
}

// TestCorollary1LargerInstances: exact vertex connectivity m+4 on the
// instances the per-pair flow rebuild used to put out of reach — HB(3,4)
// with 512 nodes and HB(4,3) with 384 — via the parallel Menger engine
// (vertex-transitive seed, shared best bound). Edge connectivity is
// checked on the larger instance as the E-EC extension.
func TestCorollary1LargerInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("exact connectivity on 384/512-node instances")
	}
	for _, dims := range [][2]int{{3, 4}, {4, 3}} {
		hb := MustNew(dims[0], dims[1])
		want := hb.ConnectivityFormula()
		if got := graph.ConnectivityVertexTransitive(hb.Dense(), 0); got != want {
			t.Errorf("HB%v: vertex connectivity %d, want %d", dims, got, want)
		}
	}
	hb := MustNew(3, 4)
	if got := graph.EdgeConnectivity(hb.Dense(), 0); got != hb.Degree() {
		t.Errorf("HB(3,4): edge connectivity %d, want %d", got, hb.Degree())
	}
}

// TestGirth: the relator (g·f⁻¹)² gives 4-cycles in the butterfly
// factor, and the g-generator level cycle gives n-cycles, so the girth
// of HB(m,n) is min(n, 4) — triangles exist exactly when n = 3.
func TestGirth(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {2, 3}, {1, 4}, {0, 5}, {2, 4}} {
		hb := MustNew(dims[0], dims[1])
		want := 4
		if dims[1] == 3 {
			want = 3
		}
		if got := girth(hb); got != want {
			t.Errorf("HB%v: girth %d, want %d", dims, got, want)
		}
	}
}

// girth returns the length of a shortest cycle of g, or -1 for a forest.
// Self-loops count as girth 1 and multi-edges as girth 2.
//
// Implementation: a BFS from every vertex; a non-tree edge closing at
// depths d1, d2 witnesses a cycle of length d1+d2+1. This is exact and
// O(V·E) — fine for the instance sizes TestGirth uses.
func girth(g graph.Graph) int {
	n := g.Order()
	best := -1
	update := func(c int) {
		if best == -1 || c < best {
			best = c
		}
	}
	var buf []int
	// Self-loops and multi-edges first (BFS below assumes simple).
	for v := 0; v < n; v++ {
		buf = g.AppendNeighbors(v, buf[:0])
		seen := make(map[int]bool, len(buf))
		for _, w := range buf {
			if w == v {
				update(1)
				continue
			}
			if seen[w] {
				update(2)
			}
			seen[w] = true
		}
	}
	if best != -1 {
		return best
	}
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		if best == 3 {
			break // cannot improve on a triangle in a simple graph
		}
		for i := range dist {
			dist[i] = graph.Unreachable
			parent[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], int32(src))
		for head := 0; head < len(queue); head++ {
			v := int(queue[head])
			if best != -1 && int(2*dist[v]) >= best {
				break // deeper levels cannot yield a shorter cycle
			}
			buf = g.AppendNeighbors(v, buf[:0])
			for _, w := range buf {
				if int32(w) == parent[v] {
					parent[v] = -2 // consume one parent edge (multi-edges already handled)
					continue
				}
				if dist[w] == graph.Unreachable {
					dist[w] = dist[v] + 1
					parent[w] = int32(v)
					queue = append(queue, int32(w))
					continue
				}
				update(int(dist[v] + dist[w] + 1))
			}
		}
	}
	return best
}
