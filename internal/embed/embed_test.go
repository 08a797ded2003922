package embed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hypercube"
)

// gridGraph is the a x b grid used to validate GridCycle directly.
type gridGraph struct{ a, b int }

func (g gridGraph) Order() int { return g.a * g.b }

func (g gridGraph) AppendNeighbors(v int, buf []int) []int {
	r, c := v/g.b, v%g.b
	if r > 0 {
		buf = append(buf, v-g.b)
	}
	if r < g.a-1 {
		buf = append(buf, v+g.b)
	}
	if c > 0 {
		buf = append(buf, v-1)
	}
	if c < g.b-1 {
		buf = append(buf, v+1)
	}
	return buf
}

func TestGridCycleAllLengths(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {2, 5}, {4, 3}, {4, 7}, {6, 6}, {8, 5}} {
		a, b := dims[0], dims[1]
		g := gridGraph{a, b}
		for k := 4; k <= a*b; k += 2 {
			cells, err := GridCycle(a, b, k)
			if err != nil {
				t.Fatalf("GridCycle(%d,%d,%d): %v", a, b, k, err)
			}
			if len(cells) != k {
				t.Fatalf("GridCycle(%d,%d,%d): length %d", a, b, k, len(cells))
			}
			ids := make([]int, k)
			for i, rc := range cells {
				if rc[0] < 0 || rc[0] >= a || rc[1] < 0 || rc[1] >= b {
					t.Fatalf("GridCycle(%d,%d,%d): cell %v out of grid", a, b, k, rc)
				}
				ids[i] = rc[0]*b + rc[1]
			}
			if err := graph.VerifyCycle(g, ids); err != nil {
				t.Fatalf("GridCycle(%d,%d,%d): %v", a, b, k, err)
			}
		}
	}
}

func TestGridCycleErrors(t *testing.T) {
	if _, err := GridCycle(1, 5, 4); err == nil {
		t.Error("accepted 1-row grid")
	}
	if _, err := GridCycle(4, 4, 5); err == nil {
		t.Error("accepted odd k")
	}
	if _, err := GridCycle(4, 4, 2); err == nil {
		t.Error("accepted k = 2")
	}
	if _, err := GridCycle(4, 4, 18); err == nil {
		t.Error("accepted k > a*b")
	}
	if _, err := GridCycle(3, 4, 10); err == nil {
		t.Error("accepted odd row count for snake")
	}
}

func TestCubeTree(t *testing.T) {
	for k := 1; k <= 8; k++ {
		phi, err := CubeTree(k)
		if err != nil {
			t.Fatal(err)
		}
		tree := graph.CompleteBinaryTree{Levels: k}
		if len(phi) != tree.Order() {
			t.Fatalf("k=%d: size %d", k, len(phi))
		}
		host := hypercube.MustNew(k + 1)
		ints := make([]int, len(phi))
		for i, x := range phi {
			ints[i] = int(x)
		}
		if err := graph.VerifyEmbedding(tree, host, ints); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if _, err := CubeTree(0); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := CubeTree(27); err == nil {
		t.Error("accepted k = 27")
	}
}

// TestCubeTreeFitsLargerCube checks the padding claim: T(k) in H_m for
// any m >= k+1 without relabeling.
func TestCubeTreeFitsLargerCube(t *testing.T) {
	phi, err := CubeTree(3)
	if err != nil {
		t.Fatal(err)
	}
	host := hypercube.MustNew(6)
	ints := make([]int, len(phi))
	for i, x := range phi {
		ints[i] = int(x)
	}
	if err := graph.VerifyEmbedding(graph.CompleteBinaryTree{Levels: 3}, host, ints); err != nil {
		t.Fatal(err)
	}
}

func TestTorusEmbeddings(t *testing.T) {
	hb := core.MustNew(3, 3)
	for _, kind := range []BfCycleKind{BfLevel, BfDoubleLevel, BfHamiltonian} {
		for n1 := 4; n1 <= 8; n1 += 2 {
			tor, phi, err := Torus(hb, n1, kind)
			if err != nil {
				t.Fatalf("Torus(%d, kind %d): %v", n1, kind, err)
			}
			if err := graph.VerifyEmbedding(tor, hb, phi); err != nil {
				t.Fatalf("Torus(%d, kind %d): %v", n1, kind, err)
			}
		}
	}
	if _, _, err := Torus(hb, 3, BfLevel); err == nil {
		t.Error("accepted odd torus side")
	}
	if _, _, err := Torus(hb, 16, BfLevel); err == nil {
		t.Error("accepted torus side > 2^m")
	}
}

// TestLemma2EvenCycles verifies the even-pancyclicity claim across the
// whole admissible range on HB(1,3) and HB(2,3), and at boundary and
// sampled lengths on HB(2,4).
func TestLemma2EvenCycles(t *testing.T) {
	for _, dims := range [][2]int{{1, 3}, {2, 3}} {
		hb := core.MustNew(dims[0], dims[1])
		max := hb.Order()
		for k := 4; k <= max; k += 2 {
			cyc, err := EvenCycle(hb, k)
			if err != nil {
				t.Fatalf("HB%v EvenCycle(%d): %v", dims, k, err)
			}
			if len(cyc) != k {
				t.Fatalf("HB%v EvenCycle(%d): length %d", dims, k, len(cyc))
			}
			if err := graph.VerifyCycle(hb, cyc); err != nil {
				t.Fatalf("HB%v EvenCycle(%d): %v", dims, k, err)
			}
		}
	}
	hb := core.MustNew(2, 4)
	for _, k := range []int{4, 6, 50, 128, 254, hb.Order() - 2, hb.Order()} {
		cyc, err := EvenCycle(hb, k)
		if err != nil {
			t.Fatalf("EvenCycle(%d): %v", k, err)
		}
		if err := graph.VerifyCycle(hb, cyc); err != nil {
			t.Fatalf("EvenCycle(%d): %v", k, err)
		}
	}
}

func TestEvenCycleErrors(t *testing.T) {
	hb := core.MustNew(2, 3)
	if _, err := EvenCycle(hb, 5); err == nil {
		t.Error("accepted odd k")
	}
	if _, err := EvenCycle(hb, hb.Order()+2); err == nil {
		t.Error("accepted k > order")
	}
	if _, err := EvenCycle(core.MustNew(0, 3), 6); err == nil {
		t.Error("accepted m = 0")
	}
}

// TestBinaryTree verifies the T(m+n-1) row of Figure 1.
func TestBinaryTree(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {1, 4}, {2, 3}, {3, 3}, {4, 3}, {3, 4}} {
		hb := core.MustNew(dims[0], dims[1])
		levels, phi, err := BinaryTree(hb)
		if err != nil {
			t.Fatalf("HB%v: %v", dims, err)
		}
		if levels != dims[0]+dims[1]-1 {
			t.Fatalf("HB%v: levels %d, want %d", dims, levels, dims[0]+dims[1]-1)
		}
		tree := graph.CompleteBinaryTree{Levels: levels}
		if len(phi) != tree.Order() {
			t.Fatalf("HB%v: size %d, want %d", dims, len(phi), tree.Order())
		}
		if err := graph.VerifyEmbedding(tree, hb, phi); err != nil {
			t.Fatalf("HB%v: %v", dims, err)
		}
	}
}

// TestTheorem4MeshOfTrees sweeps the full admissible (p,q) range on
// HB(4,3) and HB(5,4).
func TestTheorem4MeshOfTrees(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 3}, {5, 4}} {
		hb := core.MustNew(dims[0], dims[1])
		for p := 1; p <= hb.M()-2; p++ {
			for q := 1; q <= hb.N(); q++ {
				mt, phi, err := MeshOfTrees(hb, p, q)
				if err != nil {
					t.Fatalf("HB%v MT(2^%d,2^%d): %v", dims, p, q, err)
				}
				// The guest itself: the real (non-padding) vertices number
				// 2^q row-tree copies plus 2^p column-tree copies sharing
				// 2^(p+q) leaves, and form one connected graph.
				padding := make([]bool, mt.Order())
				real := 0
				for v := range padding {
					padding[v] = !mt.Contains(v)
					if !padding[v] {
						real++
					}
				}
				want := (1<<(p+1)-1)<<q + (1<<(q+1)-1)<<p - 1<<(p+q)
				if real != want || !graph.IsConnected(mt, padding) {
					t.Fatalf("HB%v MT(2^%d,2^%d): bad guest: %d real vertices (want %d), connected %v",
						dims, p, q, real, want, graph.IsConnected(mt, padding))
				}
				if err := graph.VerifyEmbedding(mt, hb, phi); err != nil {
					t.Fatalf("HB%v MT(2^%d,2^%d): %v", dims, p, q, err)
				}
			}
		}
	}
}

func TestMeshOfTreesBounds(t *testing.T) {
	hb := core.MustNew(3, 3)
	if _, _, err := MeshOfTrees(hb, 2, 1); err == nil {
		t.Error("accepted p > m-2")
	}
	if _, _, err := MeshOfTrees(hb, 0, 1); err == nil {
		t.Error("accepted p = 0")
	}
	if _, _, err := MeshOfTrees(hb, 1, 4); err == nil {
		t.Error("accepted q > n")
	}
	if _, _, err := MeshOfTrees(hb, 1, 0); err == nil {
		t.Error("accepted q = 0")
	}
}

// TestTorusKN sweeps the generalised torus embedding over lap counts.
func TestTorusKN(t *testing.T) {
	hb := core.MustNew(2, 3)
	for _, n1 := range []int{4} {
		for k := 1; k <= 8; k++ {
			tor, phi, err := TorusKN(hb, n1, k)
			if err != nil {
				t.Fatalf("TorusKN(%d,%d): %v", n1, k, err)
			}
			if tor.N2 != 3*k {
				t.Fatalf("TorusKN(%d,%d): side %d", n1, k, tor.N2)
			}
			if err := graph.VerifyEmbedding(tor, hb, phi); err != nil {
				t.Fatalf("TorusKN(%d,%d): %v", n1, k, err)
			}
		}
	}
	if _, _, err := TorusKN(hb, 4, 9); err == nil {
		t.Error("accepted k > 2^n")
	}
	if _, _, err := TorusKN(hb, 3, 2); err == nil {
		t.Error("accepted odd n1")
	}
}

// TestQualityOfSubgraphEmbeddings: every Section 4 embedding is a
// subgraph embedding, so dilation must be exactly 1 (and congestion 1:
// distinct guest edges map to distinct host edges under injectivity).
func TestQualityOfSubgraphEmbeddings(t *testing.T) {
	hb := core.MustNew(3, 3)
	dist := hb.Distance
	route := func(u, v int) []int { return hb.Route(u, v) }

	tor, phi, err := Torus(hb, 4, BfDoubleLevel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := MeasureQuality(tor, hb.Order(), phi, dist, route)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dilation != 1 || q.Congestion != 1 || q.AvgDilation != 1 {
		t.Fatalf("torus quality %+v, want dilation/congestion 1", q)
	}
	if q.Expansion != float64(hb.Order())/float64(tor.Order()) {
		t.Fatalf("expansion %v", q.Expansion)
	}

	levels, tphi, err := BinaryTree(hb)
	if err != nil {
		t.Fatal(err)
	}
	q, err = MeasureQuality(graph.CompleteBinaryTree{Levels: levels}, hb.Order(), tphi, dist, route)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dilation != 1 || q.Congestion != 1 {
		t.Fatalf("tree quality %+v", q)
	}
}

// TestQualityDetectsDilation uses a deliberately stretched embedding.
func TestQualityDetectsDilation(t *testing.T) {
	// Guest C4 into host ring C8 at every second position: each guest
	// edge stretches over 2 host edges, and the routed images tile the
	// ring without overlap.
	host := graph.Ring{N: 8}
	hostDist := func(u, v int) int {
		d := (v - u + 8) % 8
		if d > 4 {
			d = 8 - d
		}
		return d
	}
	hostRoute := func(u, v int) []int {
		p := []int{u}
		cw := (v - u + 8) % 8
		step := 1
		if cw > 4 {
			step = 7 // counter-clockwise
		}
		for cur := u; cur != v; {
			cur = (cur + step) % 8
			p = append(p, cur)
		}
		return p
	}
	phi := []int{0, 2, 4, 6}
	q, err := MeasureQuality(graph.Ring{N: 4}, 8, phi, hostDist, hostRoute)
	if err != nil {
		t.Fatal(err)
	}
	if q.Dilation != 2 || q.AvgDilation != 2 || q.Congestion != 1 || q.Expansion != 2 {
		t.Fatalf("quality %+v", q)
	}
	_ = host
	if _, err := MeasureQuality(graph.Ring{N: 4}, 8, []int{0}, hostDist, hostRoute); err == nil {
		t.Error("accepted short map")
	}
}
