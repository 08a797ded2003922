package graph

import (
	"math/rand"
	"testing"
)

// Differential tests of the FlowScratch Menger engine (menger.go)
// against the test-only reference flow of oracle_test.go: random graphs
// here, every conformance topology in differential_test.go, and the
// FuzzLocalConnectivity target below. The engine must match the
// reference exactly — same counts, same global minima — on every input.

// randomDense draws a G(n,p) graph, optionally salted with self-loops
// and duplicate edges (the de Bruijn degeneracies the engine must
// ignore exactly like the reference).
func randomDense(rng *rand.Rand, n int, p float64, degenerate bool) *Dense {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
				if degenerate && rng.Float64() < 0.1 {
					edges = append(edges, [2]int{u, v}) // multi-edge
				}
			}
		}
		if degenerate && rng.Float64() < 0.1 {
			edges = append(edges, [2]int{u, u}) // self-loop
		}
	}
	return NewDense(n, edges)
}

func TestFlowScratchMatchesReferenceRandom(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		degenerate bool
	}{
		{2, 1, false},
		{8, 0.3, false},
		{12, 0.25, true},
		{16, 0.4, false},
		{16, 0.15, true},
		{24, 0.2, false},
		{32, 0.12, true},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*977 + int64(c.n)))
			d := randomDense(rng, c.n, c.p, c.degenerate)
			fs := NewFlowScratch(d)
			efs := NewEdgeFlowScratch(d)
			for trial := 0; trial < 24; trial++ {
				s := rng.Intn(c.n)
				u := rng.Intn(c.n - 1)
				if u >= s {
					u++
				}
				want := LocalConnectivityReference(d, s, u)
				if got := fs.LocalConnectivity(s, u, -1); got != want {
					t.Fatalf("n=%d p=%v seed %d: LocalConnectivity(%d,%d) = %d, reference %d",
						c.n, c.p, seed, s, u, got, want)
				}
				// A limit caps the flow at exactly min(limit, value).
				limit := rng.Intn(4)
				wantCapped := want
				if limit < wantCapped {
					wantCapped = limit
				}
				if got := fs.LocalConnectivity(s, u, limit); got != wantCapped {
					t.Fatalf("n=%d seed %d: LocalConnectivity(%d,%d,limit=%d) = %d, want %d",
						c.n, seed, s, u, limit, got, wantCapped)
				}
				wantE := LocalEdgeConnectivityReference(d, s, u)
				if got := efs.LocalEdgeConnectivity(s, u, -1); got != wantE {
					t.Fatalf("n=%d seed %d: LocalEdgeConnectivity(%d,%d) = %d, reference %d",
						c.n, seed, s, u, got, wantE)
				}
			}
			wantK := ConnectivityReference(d)
			wantL := EdgeConnectivityReference(d)
			for _, workers := range []int{1, 4} {
				if got := Connectivity(d, workers); got != wantK {
					t.Fatalf("n=%d p=%v seed %d: Connectivity(w=%d) = %d, reference %d",
						c.n, c.p, seed, workers, got, wantK)
				}
				if got := EdgeConnectivity(d, workers); got != wantL {
					t.Fatalf("n=%d seed %d: EdgeConnectivity(w=%d) = %d, reference %d",
						c.n, seed, workers, got, wantL)
				}
			}
		}
	}
}

// TestParallelDriversEdgeCases pins the degenerate inputs the drivers
// handle at several workers: empty, singleton, disconnected, complete.
func TestParallelDriversEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		d    *Dense
		want int
	}{
		{"empty", NewDense(0, nil), 0},
		{"single", NewDense(1, nil), 0},
		{"disconnected", NewDense(4, [][2]int{{0, 1}, {2, 3}}), 0},
		{"k2", NewDense(2, [][2]int{{0, 1}}), 1},
		{"k5", Build(Complete{N: 5}), 4},
		{"petersen", petersen(), 3},
	}
	for _, c := range cases {
		if got := Connectivity(c.d, 2); got != c.want {
			t.Errorf("%s: Connectivity = %d, want %d", c.name, got, c.want)
		}
		if got := ConnectivityVertexTransitive(c.d, 2); got != c.want {
			t.Errorf("%s: ConnectivityVertexTransitive = %d, want %d", c.name, got, c.want)
		}
	}
	if got := EdgeConnectivity(petersen(), 2); got != 3 {
		t.Errorf("petersen: EdgeConnectivity = %d, want 3", got)
	}
	if got := EdgeConnectivity(NewDense(4, [][2]int{{0, 1}, {2, 3}}), 2); got != 0 {
		t.Errorf("disconnected: EdgeConnectivity = %d, want 0", got)
	}
}

// TestFlowScratchDisjointPaths runs the arena decomposition over random
// graphs: the path count must equal the reference local connectivity
// and the verifier must accept every set, across repeated (s,t) reuses
// of one scratch.
func TestFlowScratchDisjointPaths(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		d := randomDense(rng, 20, 0.25, seed%2 == 0)
		fs := NewFlowScratch(d)
		for trial := 0; trial < 20; trial++ {
			s := rng.Intn(20)
			u := rng.Intn(19)
			if u >= s {
				u++
			}
			want := LocalConnectivityReference(d, s, u)
			paths, err := fs.DisjointPaths(s, u, -1)
			if err != nil {
				t.Fatalf("seed %d: DisjointPaths(%d,%d): %v", seed, s, u, err)
			}
			if len(paths) != want {
				t.Fatalf("seed %d: DisjointPaths(%d,%d) found %d paths, want %d", seed, s, u, len(paths), want)
			}
			if err := VerifyDisjointPaths(d, s, u, paths); err != nil {
				t.Fatalf("seed %d: DisjointPaths(%d,%d): %v", seed, s, u, err)
			}
		}
	}
}

// TestFlowScratchZeroAllocSmall asserts the per-pair steady state of
// both arena flavours allocates nothing (the HB-instance table test
// lives in conn_bench_test.go, outside this package, where core can be
// imported).
func TestFlowScratchZeroAllocSmall(t *testing.T) {
	p := petersen()
	fs := NewFlowScratch(p)
	efs := NewEdgeFlowScratch(p)
	pairs := [][2]int{{0, 7}, {2, 9}, {5, 6}, {1, 3}}
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		pr := pairs[i%len(pairs)]
		i++
		fs.LocalConnectivity(pr[0], pr[1], -1)
	}); got != 0 {
		t.Errorf("LocalConnectivity: %v allocs per pair, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		pr := pairs[i%len(pairs)]
		i++
		efs.LocalEdgeConnectivity(pr[0], pr[1], -1)
	}); got != 0 {
		t.Errorf("LocalEdgeConnectivity: %v allocs per pair, want 0", got)
	}
}

// TestFlowScratchPanicsOnMisuse pins the guard rails: self-pairs, out
// of range vertices, and cross-flavour calls.
func TestFlowScratchPanicsOnMisuse(t *testing.T) {
	p := petersen()
	fs := NewFlowScratch(p)
	efs := NewEdgeFlowScratch(p)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("self pair", func() { fs.LocalConnectivity(3, 3, -1) })
	expectPanic("out of range", func() { fs.LocalConnectivity(0, 10, -1) })
	expectPanic("edge on vertex arena", func() { fs.LocalEdgeConnectivity(0, 1, -1) })
	expectPanic("vertex on edge arena", func() { efs.LocalConnectivity(0, 1, -1) })
	if _, err := efs.DisjointPaths(0, 1, -1); err == nil {
		t.Error("DisjointPaths on edge arena: no error")
	}
}

// FuzzLocalConnectivity fuzzes (edges, s, t, limit) against the
// reference flow: the engine must match the unbounded reference value,
// honour the cap exactly, and decompose a verifiable maximum disjoint
// path set — the flow-side sibling of FuzzBFSKernel.
func FuzzLocalConnectivity(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0}, uint8(0), uint8(2), uint8(3))
	f.Add([]byte{5, 5, 5, 6, 6, 5, 0, 15}, uint8(0), uint8(15), uint8(0))
	f.Add([]byte{}, uint8(3), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, sByte, tByte, limitByte uint8) {
		const n = 16
		edges := make([][2]int, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]int{int(raw[i]) % n, int(raw[i+1]) % n})
		}
		d := NewDense(n, edges)
		s := int(sByte) % n
		u := int(tByte) % n
		if s == u {
			u = (u + 1) % n
		}
		want := LocalConnectivityReference(d, s, u)
		fs := NewFlowScratch(d)
		if got := fs.LocalConnectivity(s, u, -1); got != want {
			t.Fatalf("LocalConnectivity(%d,%d) = %d, reference %d", s, u, got, want)
		}
		limit := int(limitByte) % 8
		wantCapped := want
		if limit < wantCapped {
			wantCapped = limit
		}
		if got := fs.LocalConnectivity(s, u, limit); got != wantCapped {
			t.Fatalf("LocalConnectivity(%d,%d,limit=%d) = %d, want %d", s, u, limit, got, wantCapped)
		}
		paths, err := fs.DisjointPaths(s, u, -1)
		if err != nil {
			t.Fatalf("DisjointPaths(%d,%d): %v", s, u, err)
		}
		if len(paths) != want {
			t.Fatalf("DisjointPaths(%d,%d): %d paths, want %d", s, u, len(paths), want)
		}
		if err := VerifyDisjointPaths(d, s, u, paths); err != nil {
			t.Fatalf("DisjointPaths(%d,%d): %v", s, u, err)
		}
		wantE := LocalEdgeConnectivityReference(d, s, u)
		if got := NewEdgeFlowScratch(d).LocalEdgeConnectivity(s, u, -1); got != wantE {
			t.Fatalf("LocalEdgeConnectivity(%d,%d) = %d, reference %d", s, u, got, wantE)
		}
	})
}

// TestNodeToSetMatchesReferenceRandom compares NodeToSetDisjointPaths
// (the sink-augmented Menger arena) with the test-only flowNet reference
// on seeded G(n,p) graphs. Target sets range from one vertex to more
// than the source's degree, so many are infeasible; sparse graphs also
// disconnect targets. Both implementations must agree on the error
// (same message, or both nil), and every fan returned must verify.
func TestNodeToSetMatchesReferenceRandom(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		degenerate bool
	}{
		{4, 0.5, false},
		{10, 0.3, true},
		{16, 0.2, false},
		{16, 0.4, true},
		{24, 0.15, false},
		{32, 0.25, true},
	}
	fans, infeasible := 0, 0
	for _, c := range cases {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(c.n)))
			d := randomDense(rng, c.n, c.p, c.degenerate)
			for trial := 0; trial < 20; trial++ {
				src := rng.Intn(c.n)
				k := 1 + rng.Intn(c.n-1)
				if k > 8 {
					k = 1 + rng.Intn(8)
				}
				targets := make([]int, 0, k)
				for _, v := range rng.Perm(c.n) {
					if v != src && len(targets) < k {
						targets = append(targets, v)
					}
				}
				got, gerr := NodeToSetDisjointPaths(d, src, targets)
				want, werr := NodeToSetDisjointPathsReference(d, src, targets)
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("n=%d seed %d src %d targets %v: error %v, reference %v", c.n, seed, src, targets, gerr, werr)
				}
				if gerr != nil {
					infeasible++
					continue
				}
				fans++
				if err := VerifyNodeToSetPaths(d, src, targets, got); err != nil {
					t.Fatalf("n=%d seed %d src %d targets %v: %v", c.n, seed, src, targets, err)
				}
				if err := VerifyNodeToSetPaths(d, src, targets, want); err != nil {
					t.Fatalf("n=%d seed %d src %d targets %v: reference: %v", c.n, seed, src, targets, err)
				}
			}
		}
	}
	if fans == 0 || infeasible == 0 {
		t.Fatalf("fixture too narrow: %d fans, %d infeasible sets", fans, infeasible)
	}
}
