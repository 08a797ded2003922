package graph

import (
	"fmt"
	"testing"
)

// petersen returns the Petersen graph: 10 vertices, 15 edges, 3-regular,
// diameter 2, vertex connectivity 3 — a compact all-round fixture.
func petersen() *Dense {
	edges := [][2]int{
		// outer 5-cycle
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		// spokes
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
		// inner pentagram
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
	}
	return NewDense(10, edges)
}

func TestDenseBasics(t *testing.T) {
	p := petersen()
	if p.Order() != 10 {
		t.Fatalf("Order = %d", p.Order())
	}
	if p.EdgeCount() != 15 {
		t.Fatalf("EdgeCount = %d", p.EdgeCount())
	}
	for v := 0; v < 10; v++ {
		if p.Degree(v) != 3 {
			t.Fatalf("Degree(%d) = %d", v, p.Degree(v))
		}
	}
	if !p.HasEdge(0, 1) || p.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if err := CheckUndirected(p); err != nil {
		t.Fatal(err)
	}
}

func TestBuildMatchesNewDense(t *testing.T) {
	r := Ring{N: 7}
	d := Build(r)
	if d.Order() != 7 || d.EdgeCount() != 7 {
		t.Fatalf("ring build: order %d edges %d", d.Order(), d.EdgeCount())
	}
	for v := 0; v < 7; v++ {
		if d.Degree(v) != 2 {
			t.Fatalf("ring degree %d at %d", d.Degree(v), v)
		}
	}
}

func TestSelfLoopAndMultiEdge(t *testing.T) {
	d := NewDense(2, [][2]int{{0, 0}, {0, 1}, {0, 1}})
	if d.Degree(0) != 3 { // loop counts once, double edge twice
		t.Fatalf("Degree(0) = %d, want 3", d.Degree(0))
	}
	if d.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d, want 3", d.EdgeCount())
	}
}

func TestDegrees(t *testing.T) {
	st := Degrees(petersen())
	if !st.Regular || st.Min != 3 || st.Max != 3 {
		t.Fatalf("Degrees = %+v", st)
	}
	star := NewDense(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	st = Degrees(star)
	if st.Regular || st.Min != 1 || st.Max != 3 || st.Histogram[1] != 3 {
		t.Fatalf("star Degrees = %+v", st)
	}
}

func TestBFSAndDiameter(t *testing.T) {
	p := petersen()
	dist := BFS(p, 0, nil)
	if dist[0] != 0 || dist[1] != 1 || dist[7] != 2 {
		t.Fatalf("BFS dists wrong: %v", dist)
	}
	if d := Diameter(p, 0); d != 2 {
		t.Fatalf("Petersen diameter = %d, want 2", d)
	}
	ecc, conn := Eccentricity(p, 3)
	if ecc != 2 || !conn {
		t.Fatalf("Eccentricity = %d, %v", ecc, conn)
	}
}

func TestBFSWithFaults(t *testing.T) {
	r := Build(Ring{N: 6})
	excluded := make([]bool, 6)
	excluded[1] = true
	dist := BFS(r, 0, excluded)
	if dist[1] != Unreachable {
		t.Fatal("excluded vertex was reached")
	}
	if dist[2] != 4 { // must go the long way round
		t.Fatalf("dist[2] = %d, want 4", dist[2])
	}
}

func TestBFSPath(t *testing.T) {
	p := petersen()
	path := BFSPath(p, 0, 7, nil)
	if len(path) != 3 || path[0] != 0 || path[2] != 7 {
		t.Fatalf("path = %v", path)
	}
	if err := VerifyPath(p, path); err != nil {
		t.Fatal(err)
	}
	if got := BFSPath(p, 4, 4, nil); len(got) != 1 || got[0] != 4 {
		t.Fatalf("self path = %v", got)
	}
	// Disconnect target.
	excluded := make([]bool, 10)
	for _, v := range []int{1, 4, 5} { // all neighbors of 0
		excluded[v] = true
	}
	if got := BFSPath(p, 7, 0, excluded); got != nil {
		t.Fatalf("path through excluded vertices: %v", got)
	}
}

func TestComponentsAndConnected(t *testing.T) {
	d := NewDense(5, [][2]int{{0, 1}, {2, 3}})
	if IsConnected(d, nil) {
		t.Fatal("disconnected graph reported connected")
	}
	if !IsConnected(petersen(), nil) {
		t.Fatal("Petersen reported disconnected")
	}
	if Diameter(d, 0) != -1 {
		t.Fatal("Diameter of disconnected graph should be -1")
	}
	// Excluding vertex 4 and {2,3} leaves {0,1}: connected.
	if !IsConnected(d, []bool{false, false, true, true, true}) {
		t.Fatal("fault-restricted connectivity wrong")
	}
}

func TestDistanceHistogram(t *testing.T) {
	sweep := petersen().AllSourcesBits(nil, 0)
	if !sweep.Complete {
		t.Fatal("Petersen sweep incomplete")
	}
	hist := sweep.Hist
	// 10 pairs at distance 0, 30 ordered pairs at distance 1 (15 edges),
	// the remaining 60 ordered pairs at distance 2.
	want := []int64{10, 30, 60}
	if len(hist) != len(want) {
		t.Fatalf("hist = %v", hist)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist[%d] = %d, want %d", i, hist[i], want[i])
		}
	}
	if NewDense(3, nil).AllSourcesBits(nil, 0).Complete {
		t.Fatal("sweep of a disconnected graph reported complete")
	}
}

func TestLocalConnectivityAndDisjointPaths(t *testing.T) {
	p := petersen()
	fs := NewFlowScratch(p)
	for _, pair := range [][2]int{{0, 7}, {0, 2}, {5, 6}, {0, 1}} {
		got := fs.LocalConnectivity(pair[0], pair[1], -1)
		if got != 3 {
			t.Fatalf("LocalConnectivity(%d,%d) = %d, want 3", pair[0], pair[1], got)
		}
		paths, err := DisjointPaths(p, pair[0], pair[1], -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 3 {
			t.Fatalf("got %d paths", len(paths))
		}
		if err := VerifyDisjointPaths(p, pair[0], pair[1], paths); err != nil {
			t.Fatal(err)
		}
	}
	// limit honoured
	paths, err := DisjointPaths(p, 0, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("limited paths = %d", len(paths))
	}
}

func TestConnectivity(t *testing.T) {
	cases := []struct {
		name string
		g    *Dense
		want int
	}{
		{"petersen", petersen(), 3},
		{"ring6", Build(Ring{N: 6}), 2},
		{"path4", Build(Path{N: 4}), 1},
		{"k5", Build(Complete{N: 5}), 4},
		{"disconnected", NewDense(4, [][2]int{{0, 1}, {2, 3}}), 0},
		{"single", NewDense(1, nil), 0},
	}
	for _, c := range cases {
		if got := Connectivity(c.g, 1); got != c.want {
			t.Errorf("%s: Connectivity = %d, want %d", c.name, got, c.want)
		}
	}
	// Vertex-transitive shortcut agrees on transitive instances.
	for _, c := range cases[:2] {
		if got := ConnectivityVertexTransitive(c.g, 1); got != c.want {
			t.Errorf("%s: transitive Connectivity = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestConnectivityCutVertex(t *testing.T) {
	// Two triangles sharing vertex 2: connectivity 1, cut at vertex 2.
	d := NewDense(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}})
	if got := Connectivity(d, 1); got != 1 {
		t.Fatalf("Connectivity = %d, want 1", got)
	}
	if got := NewFlowScratch(d).LocalConnectivity(0, 3, -1); got != 1 {
		t.Fatalf("LocalConnectivity(0,3) = %d, want 1", got)
	}
}

// Product is the Cartesian product G □ H (Definition 3 of the paper uses
// exactly this product to define HB(m,n) = H_m □ B_n): vertex (u,x) is
// adjacent to (v,y) iff u=v and {x,y} is an edge of H, or x=y and {u,v}
// is an edge of G.
//
// Vertices are encoded as u*H.Order() + x, i.e. the G coordinate is the
// high digit. Product implements Graph lazily; Build it for algorithms
// needing random access.
type Product struct {
	G, H Graph
}

// NewProduct returns the Cartesian product of g and h.
func NewProduct(g, h Graph) *Product { return &Product{G: g, H: h} }

// Order returns |G|·|H|.
func (p *Product) Order() int { return p.G.Order() * p.H.Order() }

// Encode maps a coordinate pair to a product vertex id.
func (p *Product) Encode(u, x int) int { return u*p.H.Order() + x }

// Decode splits a product vertex id into its (G, H) coordinates.
func (p *Product) Decode(v int) (u, x int) { return v / p.H.Order(), v % p.H.Order() }

// AppendNeighbors implements Graph.
func (p *Product) AppendNeighbors(v int, buf []int) []int {
	u, x := p.Decode(v)
	start := len(buf)
	buf = p.G.AppendNeighbors(u, buf)
	for i := start; i < len(buf); i++ {
		buf[i] = p.Encode(buf[i], x)
	}
	start = len(buf)
	buf = p.H.AppendNeighbors(x, buf)
	for i := start; i < len(buf); i++ {
		buf[i] = p.Encode(u, buf[i])
	}
	return buf
}

// VertexLabel renders a product vertex as "(gLabel; hLabel)", using the
// factors' own labels when available.
func (p *Product) VertexLabel(v int) string {
	u, x := p.Decode(v)
	gl := fmt.Sprintf("%d", u)
	if n, ok := p.G.(Named); ok {
		gl = n.VertexLabel(u)
	}
	hl := fmt.Sprintf("%d", x)
	if n, ok := p.H.(Named); ok {
		hl = n.VertexLabel(x)
	}
	return "(" + gl + "; " + hl + ")"
}

func TestProduct(t *testing.T) {
	pr := NewProduct(Ring{N: 3}, Path{N: 2}) // triangular prism
	if pr.Order() != 6 {
		t.Fatalf("Order = %d", pr.Order())
	}
	d := Build(pr)
	if d.EdgeCount() != 9 {
		t.Fatalf("EdgeCount = %d, want 9", d.EdgeCount())
	}
	st := Degrees(d)
	if !st.Regular || st.Min != 3 {
		t.Fatalf("prism degrees: %+v", st)
	}
	if err := CheckUndirected(pr); err != nil {
		t.Fatal(err)
	}
	u, x := pr.Decode(pr.Encode(2, 1))
	if u != 2 || x != 1 {
		t.Fatalf("Encode/Decode mismatch: %d,%d", u, x)
	}
	if got := Connectivity(d, 0); got != 3 {
		t.Fatalf("prism connectivity = %d", got)
	}
}

func TestTorus(t *testing.T) {
	tor := Torus{N1: 4, N2: 5}
	d := Build(tor)
	if d.Order() != 20 || d.EdgeCount() != 40 {
		t.Fatalf("torus order %d edges %d", d.Order(), d.EdgeCount())
	}
	if err := CheckUndirected(tor); err != nil {
		t.Fatal(err)
	}
	// Torus == product of its two rings.
	prod := Build(NewProduct(Ring{N: 4}, Ring{N: 5}))
	phi := make([]int, 20)
	for i := range phi {
		phi[i] = i
	}
	if err := VerifyEmbedding(prod, d, phi); err != nil {
		t.Fatalf("torus != C4 x C5: %v", err)
	}
	if got := Connectivity(d, 0); got != 4 {
		t.Fatalf("torus connectivity = %d", got)
	}
}

func TestVerifyCycle(t *testing.T) {
	r := Ring{N: 5}
	if err := VerifyCycle(r, []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCycle(r, []int{0, 1, 2}); err == nil {
		t.Fatal("accepted non-closing cycle")
	}
	if err := VerifyCycle(r, []int{0, 1}); err == nil {
		t.Fatal("accepted 2-cycle")
	}
	if err := VerifyCycle(r, []int{0, 1, 2, 1, 0}); err == nil {
		t.Fatal("accepted repeated vertices")
	}
}

func TestVerifyEmbedding(t *testing.T) {
	host := petersen()
	guest := Ring{N: 5}
	if err := VerifyEmbedding(guest, host, []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatalf("outer cycle should embed: %v", err)
	}
	if err := VerifyEmbedding(guest, host, []int{0, 1, 2, 3, 9}); err == nil {
		t.Fatal("accepted non-edge image")
	}
	if err := VerifyEmbedding(guest, host, []int{0, 1, 2, 3, 3}); err == nil {
		t.Fatal("accepted non-injective map")
	}
	if err := VerifyEmbedding(guest, host, []int{0, 1, 2, 3}); err == nil {
		t.Fatal("accepted short map")
	}
	if err := VerifyEmbedding(guest, host, []int{0, 1, 2, 3, 99}); err == nil {
		t.Fatal("accepted out-of-range image")
	}
}

func TestVerifyDisjointPathsRejects(t *testing.T) {
	p := petersen()
	// Shared internal vertex 1.
	bad := [][]int{{0, 1, 2}, {0, 1, 6, 9, 7, 2}}
	if err := VerifyDisjointPaths(p, 0, 2, bad); err == nil {
		t.Fatal("accepted overlapping paths")
	}
	// Wrong endpoints.
	if err := VerifyDisjointPaths(p, 0, 2, [][]int{{0, 1}}); err == nil {
		t.Fatal("accepted path to wrong endpoint")
	}
	// Non-edge.
	if err := VerifyDisjointPaths(p, 0, 2, [][]int{{0, 2}}); err == nil {
		t.Fatal("accepted non-edge path")
	}
	// The direct edge twice.
	if err := VerifyDisjointPaths(p, 0, 1, [][]int{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("accepted a repeated direct edge")
	}
}

func TestVerifyGeneratorAction(t *testing.T) {
	if err := VerifyGeneratorAction(Ring{N: 5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := VerifyGeneratorAction(Ring{N: 5}, 3); err == nil {
		t.Fatal("accepted wrong degree")
	}
	// A graph with a repeated neighbor must be rejected.
	d := NewDense(3, [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 0}})
	if err := VerifyGeneratorAction(d, 3); err == nil {
		t.Fatal("accepted duplicate generator images")
	}
}

// TestDiameterParallel pins Diameter across worker counts: the same
// value from one worker, several, and the GOMAXPROCS default.
func TestDiameterParallel(t *testing.T) {
	p := petersen()
	if got := Diameter(p, 4); got != 2 {
		t.Fatalf("Diameter(workers=4) = %d", got)
	}
	if got := Diameter(p, 0); got != 2 {
		t.Fatalf("Diameter default workers = %d", got)
	}
	if got := Diameter(NewDense(4, [][2]int{{0, 1}, {2, 3}}), 2); got != -1 {
		t.Fatalf("disconnected Diameter = %d", got)
	}
	big := Build(Torus{N1: 11, N2: 13})
	if seq, par := Diameter(big, 1), Diameter(big, 3); seq != par {
		t.Fatalf("one worker %d vs three %d", seq, par)
	}
	if got := Diameter(NewDense(0, nil), 1); got != 0 {
		t.Fatalf("empty Diameter = %d", got)
	}
}

func TestEdgeConnectivity(t *testing.T) {
	cases := []struct {
		name string
		g    *Dense
		want int
	}{
		{"petersen", petersen(), 3},
		{"ring6", Build(Ring{N: 6}), 2},
		{"path4", Build(Path{N: 4}), 1},
		{"k5", Build(Complete{N: 5}), 4},
		{"disconnected", NewDense(4, [][2]int{{0, 1}, {2, 3}}), 0},
		{"single", NewDense(1, nil), 0},
		// Two triangles sharing a vertex: vertex connectivity 1 but edge
		// connectivity 2 — distinguishes the two notions.
		{"bowtie", NewDense(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}}), 2},
	}
	for _, c := range cases {
		if got := EdgeConnectivity(c.g, 1); got != c.want {
			t.Errorf("%s: EdgeConnectivity = %d, want %d", c.name, got, c.want)
		}
	}
	if got := NewEdgeFlowScratch(petersen()).LocalEdgeConnectivity(0, 7, -1); got != 3 {
		t.Errorf("LocalEdgeConnectivity = %d", got)
	}
}

func TestNodeToSetDisjointPaths(t *testing.T) {
	p := petersen()
	// kappa = 3: any 3 targets admit a fan from any source.
	cases := [][]int{
		{1, 4, 5}, // the three neighbors of 0
		{2, 7, 9}, // spread targets
		{6, 8, 3}, // mixed inner/outer
	}
	for _, targets := range cases {
		paths, err := NodeToSetDisjointPaths(p, 0, targets)
		if err != nil {
			t.Fatalf("targets %v: %v", targets, err)
		}
		if err := VerifyNodeToSetPaths(p, 0, targets, paths); err != nil {
			t.Fatalf("targets %v: %v", targets, err)
		}
	}
	// Empty target set is a no-op.
	if paths, err := NodeToSetDisjointPaths(p, 0, nil); err != nil || paths != nil {
		t.Fatalf("empty targets: %v %v", paths, err)
	}
}

func TestNodeToSetValidation(t *testing.T) {
	p := petersen()
	if _, err := NodeToSetDisjointPaths(p, 0, []int{0}); err == nil {
		t.Error("accepted src as target")
	}
	if _, err := NodeToSetDisjointPaths(p, 0, []int{1, 1}); err == nil {
		t.Error("accepted duplicate targets")
	}
	if _, err := NodeToSetDisjointPaths(p, 0, []int{77}); err == nil {
		t.Error("accepted out-of-range target")
	}
	// 4 targets exceed kappa = 3 only if they saturate a cut; from 0 the
	// degree-3 bound makes any 4 targets infeasible.
	if _, err := NodeToSetDisjointPaths(p, 0, []int{1, 2, 3, 4}); err == nil {
		t.Error("accepted more targets than the degree allows")
	}
}

func TestVerifyNodeToSetRejects(t *testing.T) {
	p := petersen()
	if err := VerifyNodeToSetPaths(p, 0, []int{1, 2}, [][]int{{0, 1}}); err == nil {
		t.Error("accepted count mismatch")
	}
	if err := VerifyNodeToSetPaths(p, 0, []int{1}, [][]int{{0, 2}}); err == nil {
		t.Error("accepted wrong endpoint")
	}
	if err := VerifyNodeToSetPaths(p, 0, []int{2, 7}, [][]int{{0, 1, 2}, {0, 1, 6, 9, 7}}); err == nil {
		t.Error("accepted shared internal vertex")
	}
}

func TestMeshOfTreesDirect(t *testing.T) {
	mt := MeshOfTrees{P: 2, Q: 2}
	// Encode/Decode round trip over the ambient product.
	for v := 0; v < mt.Order(); v++ {
		i, j := mt.Decode(v)
		if mt.Encode(i, j) != v {
			t.Fatalf("round trip failed at %d", v)
		}
	}
	// A grid leaf touches both trees: degree 2 (its two tree parents).
	leaf := mt.Encode(3, 3) // heap index 3 is a leaf of T(3)
	if !mt.Contains(leaf) {
		t.Fatal("leaf not contained")
	}
	var buf []int
	buf = mt.AppendNeighbors(leaf, buf)
	if len(buf) != 2 {
		t.Fatalf("grid leaf degree %d, want 2", len(buf))
	}
	// Padding vertices (both coordinates internal) are isolated and
	// excluded.
	pad := mt.Encode(0, 0)
	if mt.Contains(pad) {
		t.Fatal("internal-internal pair should be padding")
	}
	if buf = mt.AppendNeighbors(pad, buf[:0]); len(buf) != 0 {
		t.Fatalf("padding vertex has %d neighbors", len(buf))
	}
	// The real vertices (padding excluded) form one connected graph.
	padding := make([]bool, mt.Order())
	for v := range padding {
		padding[v] = !mt.Contains(v)
	}
	if !IsConnected(mt, padding) {
		t.Fatal("mesh of trees disconnected")
	}
}

func TestCompleteBinaryTreeOrderDegenerate(t *testing.T) {
	if (CompleteBinaryTree{Levels: 0}).Order() != 0 {
		t.Error("T(0) should be empty")
	}
	if (CompleteBinaryTree{Levels: 3}).Order() != 7 {
		t.Error("T(3) order wrong")
	}
}

func TestProductVertexLabel(t *testing.T) {
	pr := NewProduct(Ring{N: 3}, Path{N: 2})
	if got := pr.VertexLabel(pr.Encode(2, 1)); got != "(2; 1)" {
		t.Errorf("label = %q", got)
	}
	// Named factors propagate their own labels.
	type namedRing struct{ Ring }
	nr := namedRing{Ring{N: 3}}
	_ = nr
}

func TestRingPanicsBelowThree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ring{2} did not panic")
		}
	}()
	Ring{N: 2}.AppendNeighbors(0, nil)
}
