package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestTheorem5Case1 exercises h != h', b = b' exhaustively on HB(2,3)
// and by sampling on HB(3,4).
func TestTheorem5Case1(t *testing.T) {
	hb := MustNew(2, 3)
	for b := 0; b < hb.Butterfly().Order(); b++ {
		for hu := 0; hu < 4; hu++ {
			for hv := 0; hv < 4; hv++ {
				if hu == hv {
					continue
				}
				u, v := hb.Encode(hu, b), hb.Encode(hv, b)
				checkDisjoint(t, hb, u, v)
			}
		}
	}
}

// TestTheorem5Case2 exercises h = h', b != b'.
func TestTheorem5Case2(t *testing.T) {
	hb := MustNew(2, 3)
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		h := rng.Intn(4)
		bu, bv := rng.Intn(24), rng.Intn(24)
		if bu == bv {
			continue
		}
		checkDisjoint(t, hb, hb.Encode(h, bu), hb.Encode(h, bv))
	}
}

// TestTheorem5Case3 constructs and verifies the path set of
// every case-3 pair of HB(1,3), HB(2,3), HB(3,3) and HB(1,4), and checks
// that the sweep reached the adjacent sub-cases the construction's
// shortest factor paths exist for: h ~ h', b ~ b', and both.
func TestTheorem5Case3(t *testing.T) {
	pairs, cubeAdj, bfAdj, bothAdj := 0, 0, 0, 0
	for _, dims := range [][2]int{{1, 3}, {2, 3}, {3, 3}, {1, 4}} {
		hb := MustNew(dims[0], dims[1])
		for u := 0; u < hb.Order(); u++ {
			hu, bu := hb.Decode(u)
			for v := 0; v < hb.Order(); v++ {
				hv, bv := hb.Decode(v)
				if hu == hv || bu == bv {
					continue
				}
				checkDisjoint(t, hb, u, v)
				pairs++
				ca := hb.Cube().Distance(hu, hv) == 1
				ba := hb.Butterfly().Distance(bu, bv) == 1
				if ca {
					cubeAdj++
				}
				if ba {
					bfAdj++
				}
				if ca && ba {
					bothAdj++
				}
			}
		}
	}
	if pairs != 46704 {
		t.Errorf("swept %d case-3 pairs, want 46704", pairs)
	}
	if cubeAdj == 0 || bfAdj == 0 || bothAdj == 0 {
		t.Errorf("adjacent sub-cases: h~h' %d, b~b' %d, both %d; want all non-zero", cubeAdj, bfAdj, bothAdj)
	}
}

// TestDisjointPathsBuildNoAdjacency: answering cases 1, 2 and 3 on
// HB(3,8) leaves the product adjacency unbuilt, so serving /paths costs
// no graph materialisation.
func TestDisjointPathsBuildNoAdjacency(t *testing.T) {
	hb := MustNew(3, 8)
	bSize := hb.Butterfly().Order()
	for _, pair := range [][2]Node{
		{hb.Encode(1, 5), hb.Encode(6, 5)},       // case 1
		{hb.Encode(2, 7), hb.Encode(2, bSize-1)}, // case 2
		{hb.Encode(0, 0), hb.Encode(7, bSize/2)}, // case 3
	} {
		checkDisjoint(t, hb, pair[0], pair[1])
	}
	if hb.dense != nil {
		t.Error("DisjointPaths built the product adjacency")
	}
}

// TestTheorem5Larger samples all cases on HB(3,4) (3072 nodes, degree 7).
func TestTheorem5Larger(t *testing.T) {
	hb := MustNew(3, 4)
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 60; trial++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v {
			continue
		}
		checkDisjoint(t, hb, u, v)
	}
}

// TestTheorem5DegenerateM0 checks the pure-butterfly limit.
func TestTheorem5DegenerateM0(t *testing.T) {
	hb := MustNew(0, 3)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v {
			continue
		}
		checkDisjoint(t, hb, u, v)
	}
}

func checkDisjoint(t *testing.T, hb *HyperButterfly, u, v Node) {
	t.Helper()
	paths, err := hb.DisjointPaths(u, v)
	if err != nil {
		t.Fatalf("DisjointPaths(%d,%d): %v", u, v, err)
	}
	if len(paths) != hb.Degree() {
		t.Fatalf("DisjointPaths(%d,%d): %d paths, want %d", u, v, len(paths), hb.Degree())
	}
	if err := graph.VerifyDisjointPaths(hb, u, v, paths); err != nil {
		t.Fatalf("DisjointPaths(%d,%d): %v", u, v, err)
	}
}

// TestTheorem5LengthBounds checks the proof's path-length bounds for
// cases 1 and 2: hypercube-family paths at most m+2, detour families at
// most their sub-network diameter + 2.
func TestTheorem5LengthBounds(t *testing.T) {
	hb := MustNew(3, 3)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		b := rng.Intn(hb.Butterfly().Order())
		hu, hv := rng.Intn(8), rng.Intn(8)
		if hu == hv {
			continue
		}
		paths, err := hb.DisjointPaths(hb.Encode(hu, b), hb.Encode(hv, b))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if len(p)-1 > hb.M()+4 { // m+2 for cube paths, cubeRoute+2 <= m+2 for detours
				t.Fatalf("case-1 path of length %d exceeds bound", len(p)-1)
			}
		}
	}
}

// Corollary 1 (vertex connectivity m+4, computed by max-flow) is
// asserted by the conformance suite in conformance_test.go.

func TestDisjointPathsErrors(t *testing.T) {
	hb := MustNew(1, 3)
	if _, err := hb.DisjointPaths(2, 2); err == nil {
		t.Error("accepted equal endpoints")
	}
	if _, err := hb.DisjointPaths(-1, 2); err == nil {
		t.Error("accepted negative endpoint")
	}
	if _, err := hb.DisjointPaths(0, hb.Order()); err == nil {
		t.Error("accepted out-of-range endpoint")
	}
}

// TestFan exercises the node-to-set disjoint paths up to the full fan
// size m+4.
func TestFan(t *testing.T) {
	hb := MustNew(2, 3)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 120; trial++ {
		src := rng.Intn(hb.Order())
		size := 1 + rng.Intn(hb.Degree())
		targets := make([]int, 0, size)
		used := map[int]bool{src: true}
		for len(targets) < size {
			x := rng.Intn(hb.Order())
			if !used[x] {
				used[x] = true
				targets = append(targets, x)
			}
		}
		paths, err := hb.Fan(src, targets)
		if err != nil {
			t.Fatalf("Fan(%d, %v): %v", src, targets, err)
		}
		if err := graph.VerifyNodeToSetPaths(hb, src, targets, paths); err != nil {
			t.Fatalf("Fan(%d, %v): %v", src, targets, err)
		}
	}
	if _, err := hb.Fan(0, make([]int, hb.Degree()+1)); err == nil {
		t.Error("accepted oversized fan")
	}
	if _, err := hb.Fan(-1, []int{1}); err == nil {
		t.Error("accepted bad source")
	}
}
