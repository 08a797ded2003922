package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestKernelMatchesReferenceOnConformanceTargets runs the differential
// BFS check over every topology the conformance sweep produces — the
// hypercubes, butterflies, de Bruijn graphs (self-loops and
// multi-edges) and hyper-variants the kernel actually serves — with and
// without random fault sets.
func TestKernelMatchesReferenceOnConformanceTargets(t *testing.T) {
	targets, err := conformance.Sweep(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewScratch(0)
	for _, target := range targets {
		d := graph.Build(target.Graph)
		n := d.Order()
		rng := rand.New(rand.NewSource(int64(n)))
		srcs := []int{0, n - 1, rng.Intn(n)}
		for _, src := range srcs {
			for _, withFaults := range []bool{false, true} {
				var excluded []bool
				if withFaults {
					excluded = make([]bool, n)
					for v := range excluded {
						if v != src && rng.Float64() < 0.15 {
							excluded[v] = true
						}
					}
				}
				want := graph.BFSReference(d, src, excluded)
				got := d.BFSScratch(src, excluded, s)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s src %d faults=%v: dist[%d] = %d, reference %d",
							target.Name, src, withFaults, v, got[v], want[v])
					}
				}
			}
		}
		// The interface and CSR paths of the public entry points agree.
		if n <= 2048 {
			seqEcc, seqConn := graph.Eccentricity(target.Graph, 0)
			denseEcc, denseConn := graph.Eccentricity(d, 0)
			if seqEcc != denseEcc || seqConn != denseConn {
				t.Fatalf("%s: Eccentricity interface (%d,%v) vs dense (%d,%v)",
					target.Name, seqEcc, seqConn, denseEcc, denseConn)
			}
		}
	}
}

// TestMengerMatchesReferenceOnConformanceTargets runs the Menger engine
// differential over the same sweep: the connectivity entry points at one and
// at GOMAXPROCS workers, the per-pair arena, and the flat-decomposition
// DisjointPaths must agree with the test-only reference flow on every
// topology family — including the irregular de Bruijn graphs with
// self-loops and multi-edges.
func TestMengerMatchesReferenceOnConformanceTargets(t *testing.T) {
	targets, err := conformance.Sweep(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		d := graph.Build(target.Graph)
		n := d.Order()
		if n > 512 {
			continue // exact global connectivity on every target stays fast
		}
		wantK := graph.ConnectivityReference(d)
		wantL := graph.EdgeConnectivityReference(d)
		for _, workers := range []int{1, 0} {
			if got := graph.Connectivity(d, workers); got != wantK {
				t.Fatalf("%s: Connectivity(w=%d) = %d, reference %d", target.Name, workers, got, wantK)
			}
			if target.VertexTransitive {
				if got := graph.ConnectivityVertexTransitive(d, workers); got != wantK {
					t.Fatalf("%s: ConnectivityVertexTransitive(w=%d) = %d, reference %d", target.Name, workers, got, wantK)
				}
			}
			if got := graph.EdgeConnectivity(d, workers); got != wantL {
				t.Fatalf("%s: EdgeConnectivity(w=%d) = %d, reference %d", target.Name, workers, got, wantL)
			}
		}
		// Sampled pairs: engine local values and path decomposition vs
		// the reference, reusing one arena across pairs as consumers do.
		fs := graph.NewFlowScratch(d)
		rng := rand.New(rand.NewSource(target.Seed))
		for trial := 0; trial < 6; trial++ {
			s := rng.Intn(n)
			u := rng.Intn(n)
			if s == u {
				continue
			}
			want := graph.LocalConnectivityReference(d, s, u)
			if got := fs.LocalConnectivity(s, u, -1); got != want {
				t.Fatalf("%s: LocalConnectivity(%d,%d) = %d, reference %d", target.Name, s, u, got, want)
			}
			paths, err := graph.DisjointPaths(d, s, u, -1)
			if err != nil {
				t.Fatalf("%s: DisjointPaths(%d,%d): %v", target.Name, s, u, err)
			}
			if len(paths) != want {
				t.Fatalf("%s: DisjointPaths(%d,%d): %d paths, want %d", target.Name, s, u, len(paths), want)
			}
			if err := graph.VerifyDisjointPaths(d, s, u, paths); err != nil {
				t.Fatalf("%s: DisjointPaths(%d,%d): %v", target.Name, s, u, err)
			}
		}
	}
}

// TestNodeToSetMatchesReferenceOnConformanceTargets runs the Fan
// differential on every hyper-butterfly of the sweep: from sampled
// sources, m+4 random targets (the fan size Corollary 1 guarantees)
// must yield a verified fan from both NodeToSetDisjointPaths and the
// test-only reference, and adding one more target must fail in both
// when the targets include every neighbour of the source.
func TestNodeToSetMatchesReferenceOnConformanceTargets(t *testing.T) {
	targets, err := conformance.Sweep(1, 3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, target := range targets {
		hb, ok := target.Graph.(*core.HyperButterfly)
		if !ok {
			continue
		}
		d := hb.Dense()
		n := d.Order()
		rng := rand.New(rand.NewSource(target.Seed))
		for trial := 0; trial < 8; trial++ {
			src := rng.Intn(n)
			fan := make([]int, 0, hb.Degree())
			for _, v := range rng.Perm(n) {
				if v != src && len(fan) < hb.Degree() {
					fan = append(fan, v)
				}
			}
			got, gerr := graph.NodeToSetDisjointPaths(d, src, fan)
			want, werr := graph.NodeToSetDisjointPathsReference(d, src, fan)
			if gerr != nil || werr != nil {
				t.Fatalf("%s src %d targets %v: error %v, reference %v", target.Name, src, fan, gerr, werr)
			}
			if err := graph.VerifyNodeToSetPaths(d, src, fan, got); err != nil {
				t.Fatalf("%s src %d targets %v: %v", target.Name, src, fan, err)
			}
			if err := graph.VerifyNodeToSetPaths(d, src, fan, want); err != nil {
				t.Fatalf("%s src %d targets %v: reference: %v", target.Name, src, fan, err)
			}
			// The source's neighbours plus one more vertex exceed its
			// degree: no fan exists, and both must say so identically.
			over := append(d.AppendNeighbors(src, nil), fan[0])
			if d.HasEdge(src, fan[0]) {
				over[len(over)-1] = (src + n/2) % n
				for over[len(over)-1] == src || d.HasEdge(src, over[len(over)-1]) {
					over[len(over)-1] = (over[len(over)-1] + 1) % n
				}
			}
			_, gerr = graph.NodeToSetDisjointPaths(d, src, over)
			_, werr = graph.NodeToSetDisjointPathsReference(d, src, over)
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s src %d targets %v: error %v, reference %v", target.Name, src, over, gerr, werr)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("sweep produced no hyper-butterfly targets")
	}
}
