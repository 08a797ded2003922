package conformance

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestDiameterParallelAgreesAcrossTopologies is the table-driven
// cross-check of graph.Diameter at worker counts {2, GOMAXPROCS}
// against its one-worker run, over one
// instance of every topology family plus a disconnected (faulted)
// graph, which must report -1 at every worker count.
func TestDiameterParallelAgreesAcrossTopologies(t *testing.T) {
	cases := []struct {
		name string
		g    graph.Graph
	}{
		{"H(4)", Hypercube(4).Graph},
		{"B(4)", Butterfly(4).Graph},
		{"D(5)", DeBruijn(5).Graph},
		{"HD(2,4)", HyperDeBruijn(2, 4).Graph},
		{"HB(2,3)", HyperButterfly(2, 3).Graph},
		{"disconnected", graph.NewDense(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})},
		{"single-vertex", graph.NewDense(1, nil)},
	}
	workerCounts := []int{2, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		serial := graph.Diameter(tc.g, 1)
		for _, w := range workerCounts {
			if got := graph.Diameter(tc.g, w); got != serial {
				t.Errorf("%s: Diameter(workers=%d) = %d, one worker = %d", tc.name, w, got, serial)
			}
		}
	}
	// The faulted case must specifically be -1, not a truncated value.
	if serial := graph.Diameter(graph.NewDense(4, [][2]int{{0, 1}, {2, 3}}), 1); serial != -1 {
		t.Fatalf("serial Diameter of disconnected graph = %d, want -1", serial)
	}
}
