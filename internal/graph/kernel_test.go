package graph

import (
	"math/rand"
	"testing"
)

// gnp returns an Erdős–Rényi random graph G(n, p) with a deterministic
// seed. Density p steers which kernel direction dominates: sparse
// graphs stay top-down, dense ones trip the bottom-up switch.
func gnp(n int, p float64, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return NewDense(n, edges)
}

// randomExcluded marks each vertex faulty with probability p, never the
// protected vertex.
func randomExcluded(n int, p float64, protect int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	excluded := make([]bool, n)
	for v := range excluded {
		if v != protect && rng.Float64() < p {
			excluded[v] = true
		}
	}
	return excluded
}

func distEqual(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d] = %d, reference %d", name, v, got[v], want[v])
		}
	}
}

// TestKernelMatchesReferenceRandom differentially tests the CSR
// direction-optimizing kernel against the retained interface BFS over
// random graphs of varied density, with and without random fault sets,
// reusing one Scratch across all cases (including shrinking/growing n).
func TestKernelMatchesReferenceRandom(t *testing.T) {
	s := NewScratch(0)
	cases := []struct {
		n    int
		p    float64
		excl float64
	}{
		{1, 0, 0},
		{2, 1, 0},
		{10, 0.3, 0},
		{50, 0.05, 0},   // sparse, likely disconnected
		{50, 0.5, 0.2},  // dense with faults: bottom-up territory
		{120, 0.02, 0},  // long diameters, top-down
		{120, 0.3, 0.1}, // direction switches mid-traversal
		{257, 0.02, 0.05},
		{64, 0.9, 0}, // near-complete: immediate bottom-up
	}
	for ci, c := range cases {
		d := gnp(c.n, c.p, int64(ci+1))
		srcs := []int{0, c.n / 2, c.n - 1}
		for _, src := range srcs {
			var excluded []bool
			if c.excl > 0 {
				excluded = randomExcluded(c.n, c.excl, src, int64(100+ci))
			}
			want := BFSReference(d, src, excluded)
			got := d.BFSScratch(src, excluded, s)
			distEqual(t, "case", got, want)
			// Scratch summaries agree with a direct scan.
			reached, maxDist := 0, int32(0)
			for _, dv := range want {
				if dv != Unreachable {
					reached++
					if dv > maxDist {
						maxDist = dv
					}
				}
			}
			if s.Reached() != reached || s.MaxDist() != int(maxDist) {
				t.Fatalf("case %d src %d: scratch reached=%d maxDist=%d, scan %d/%d",
					ci, src, s.Reached(), s.MaxDist(), reached, maxDist)
			}
		}
	}
}

// TestKernelSelfLoopsAndMultiEdges covers the adjacency shapes the de
// Bruijn family produces.
func TestKernelSelfLoopsAndMultiEdges(t *testing.T) {
	d := NewDense(4, [][2]int{{0, 0}, {0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}})
	s := NewScratch(4)
	for src := 0; src < 4; src++ {
		distEqual(t, "loops", d.BFSScratch(src, nil, s), BFSReference(d, src, nil))
	}
}

// TestKernelExcludedSourcePanics pins the historical contract.
func TestKernelExcludedSourcePanics(t *testing.T) {
	d := gnp(8, 0.5, 7)
	excluded := make([]bool, 8)
	excluded[3] = true
	defer func() {
		if recover() == nil {
			t.Fatal("excluded source did not panic")
		}
	}()
	d.BFSScratch(3, excluded, NewScratch(8))
}

// TestDiameterKernelAgainstReference cross-checks the pooled diameter
// and histogram against a from-scratch reference computation.
func TestDiameterKernelAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d := gnp(60, 0.15, seed)
		refDiam := 0
		disconnected := false
		var refHist []int64
		for v := 0; v < 60 && !disconnected; v++ {
			dist := BFSReference(d, v, nil)
			for _, dv := range dist {
				if dv == Unreachable {
					disconnected = true
					break
				}
				if int(dv) > refDiam {
					refDiam = int(dv)
				}
				for int(dv) >= len(refHist) {
					refHist = append(refHist, 0)
				}
				refHist[dv]++
			}
		}
		wantDiam := refDiam
		if disconnected {
			wantDiam = -1
			refHist = nil
		}
		if got := Diameter(d, 1); got != wantDiam {
			t.Errorf("seed %d: Diameter(workers=1) = %d, want %d", seed, got, wantDiam)
		}
		if got := Diameter(d, 3); got != wantDiam {
			t.Errorf("seed %d: Diameter(workers=3) = %d, want %d", seed, got, wantDiam)
		}
		var got []int64
		if sweep := d.AllSourcesBits(nil, 0); sweep.Complete {
			got = sweep.Hist
		}
		if len(got) != len(refHist) {
			t.Fatalf("seed %d: hist %v, want %v", seed, got, refHist)
		}
		for i := range refHist {
			if got[i] != refHist[i] {
				t.Fatalf("seed %d: hist[%d] = %d, want %d", seed, i, got[i], refHist[i])
			}
		}
	}
}

// FuzzBFSKernel fuzzes (edges, src, excluded) against the reference
// BFS. The edge list is decoded two bytes per endpoint pair over a
// 32-vertex universe; the excluded set is drawn from a seeded RNG.
func FuzzBFSKernel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3}, uint8(0), uint16(0))
	f.Add([]byte{5, 5, 5, 6, 6, 5, 0, 31}, uint8(31), uint16(3))
	f.Add([]byte{}, uint8(7), uint16(9999))
	f.Fuzz(func(t *testing.T, raw []byte, srcByte uint8, exclBits uint16) {
		const n = 32
		edges := make([][2]int, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]int{int(raw[i]) % n, int(raw[i+1]) % n})
		}
		d := NewDense(n, edges)
		src := int(srcByte) % n
		// The low 16 fuzz bits exclude vertices 0..15, never the source.
		excluded := make([]bool, n)
		for i := 0; i < 16; i++ {
			if exclBits&(1<<i) != 0 && i != src {
				excluded[i] = true
			}
		}
		want := BFSReference(d, src, excluded)
		s := NewScratch(n)
		got := d.BFSScratch(src, excluded, s)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("dist[%d] = %d, reference %d (src %d, excl %016b)", v, got[v], want[v], src, exclBits)
			}
		}
	})
}

// TestAllSourcesBitsMatchesReference differentially tests the 64-way
// bit-parallel sweep (eccentricities, pair histogram, completeness
// witness) against per-source reference BFS, with and without fault
// sets, on graphs spanning several batches.
func TestAllSourcesBitsMatchesReference(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		excl float64
	}{
		{1, 0, 0},
		{2, 1, 0},
		{40, 0.2, 0},
		{63, 0.1, 0.2},
		{64, 0.15, 0},
		{65, 0.15, 0.1},
		{130, 0.05, 0}, // crosses batch boundaries, likely disconnected
		{200, 0.08, 0.15},
	}
	for ci, c := range cases {
		d := gnp(c.n, c.p, int64(40+ci))
		var excluded []bool
		if c.excl > 0 {
			excluded = randomExcluded(c.n, c.excl, -1, int64(90+ci))
		}
		sweep := d.AllSourcesBits(excluded, 3)

		// Reference: one interface BFS per surviving source.
		complete := true
		wantEcc := make([]int32, c.n)
		var wantHist []int64
		for src := 0; src < c.n && complete; src++ {
			if excluded != nil && excluded[src] {
				wantEcc[src] = -1
				continue
			}
			dist := BFSReference(d, src, excluded)
			for v, dv := range dist {
				if excluded != nil && excluded[v] {
					continue
				}
				if dv == Unreachable {
					complete = false
					break
				}
				if dv > wantEcc[src] {
					wantEcc[src] = dv
				}
				for int(dv) >= len(wantHist) {
					wantHist = append(wantHist, 0)
				}
				wantHist[dv]++
			}
		}
		if sweep.Complete != complete {
			t.Fatalf("case %d: Complete = %v, reference %v", ci, sweep.Complete, complete)
		}
		if !complete {
			// The witness pair must be a genuinely unconnected survivor pair.
			u, v := sweep.MissingSrc, sweep.MissingDst
			if excluded != nil && (excluded[u] || excluded[v]) {
				t.Fatalf("case %d: witness (%d,%d) includes an excluded vertex", ci, u, v)
			}
			if dist := BFSReference(d, u, excluded); dist[v] != Unreachable {
				t.Fatalf("case %d: witness (%d,%d) is connected (dist %d)", ci, u, v, dist[v])
			}
			continue
		}
		for v := range wantEcc {
			if sweep.Ecc[v] != wantEcc[v] {
				t.Fatalf("case %d: Ecc[%d] = %d, reference %d", ci, v, sweep.Ecc[v], wantEcc[v])
			}
		}
		if len(sweep.Hist) != len(wantHist) {
			t.Fatalf("case %d: hist %v, reference %v", ci, sweep.Hist, wantHist)
		}
		for i := range wantHist {
			if sweep.Hist[i] != wantHist[i] {
				t.Fatalf("case %d: hist[%d] = %d, reference %d", ci, i, sweep.Hist[i], wantHist[i])
			}
		}
	}
}

// TestAllSourcesBitsEdgeCases pins the degenerate shapes.
func TestAllSourcesBitsEdgeCases(t *testing.T) {
	empty := NewDense(0, nil)
	if sweep := empty.AllSourcesBits(nil, 0); !sweep.Complete || len(sweep.Hist) != 0 {
		t.Fatalf("empty graph: %+v", sweep)
	}
	// All vertices excluded: trivially complete, no pairs.
	d := gnp(10, 0.5, 3)
	all := make([]bool, 10)
	for i := range all {
		all[i] = true
	}
	sweep := d.AllSourcesBits(all, 2)
	if !sweep.Complete {
		t.Fatalf("fully excluded graph reported incomplete")
	}
	for _, c := range sweep.Hist {
		if c != 0 {
			t.Fatalf("fully excluded graph has pairs: %v", sweep.Hist)
		}
	}
	// Two isolated vertices: incomplete with a valid witness.
	iso := NewDense(2, nil)
	sweep = iso.AllSourcesBits(nil, 1)
	if sweep.Complete || sweep.MissingSrc == sweep.MissingDst {
		t.Fatalf("isolated pair: %+v", sweep)
	}
}
