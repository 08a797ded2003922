package core_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The implicit-vs-dense differential suite: on every conformance (m,n)
// the label arithmetic must agree exactly with the materialised
// adjacency and its oracles — neighbors as sorted multisets, Distance
// against BFS over all (sampled under -short) pairs, AppendRoute as a
// valid shortest walk, and DisjointPaths as a Theorem 5 certificate
// that verifies on the adjacency and is as large as a max-flow on it.

var diffInstances = []struct{ m, n int }{
	{0, 3}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 3}, {1, 5}, {3, 4},
}

func TestImplicitNeighborsMatchDense(t *testing.T) {
	for _, inst := range diffInstances {
		hb := core.MustNew(inst.m, inst.n)
		d := graph.Build(hb)
		var buf []int
		for v := 0; v < hb.Order(); v++ {
			buf = hb.AppendNeighbors(v, buf[:0])
			sort.Ints(buf)
			row := d.Neighbors(v)
			if len(buf) != len(row) {
				t.Fatalf("HB(%d,%d) vertex %d: %d label neighbors, dense has %d",
					inst.m, inst.n, v, len(buf), len(row))
			}
			for i, w := range row {
				if buf[i] != int(w) {
					t.Fatalf("HB(%d,%d) vertex %d: label row %v != dense %v",
						inst.m, inst.n, v, buf, row)
				}
			}
		}
	}
}

func TestImplicitDistanceRouteMatchBFS(t *testing.T) {
	for _, inst := range diffInstances {
		hb := core.MustNew(inst.m, inst.n)
		d := graph.Build(hb)
		order := hb.Order()
		s := graph.NewScratch(order)
		sources := order
		if testing.Short() {
			sources = 32
		}
		rng := rand.New(rand.NewSource(int64(inst.m)<<8 | int64(inst.n)))
		var route []core.Node
		for si := 0; si < sources; si++ {
			u := si
			if testing.Short() {
				u = rng.Intn(order)
			}
			dist := d.BFSScratch(u, nil, s)
			for v := 0; v < order; v++ {
				want := int(dist[v])
				if got := hb.Distance(u, v); got != want {
					t.Fatalf("HB(%d,%d) Distance(%d,%d) = %d, BFS says %d",
						inst.m, inst.n, u, v, got, want)
				}
				route = hb.AppendRoute(u, v, route[:0])
				if len(route) != want+1 {
					t.Fatalf("HB(%d,%d) AppendRoute(%d,%d) has %d vertices, want %d",
						inst.m, inst.n, u, v, len(route), want+1)
				}
				if route[0] != u || route[len(route)-1] != v {
					t.Fatalf("HB(%d,%d) AppendRoute(%d,%d) runs %d..%d",
						inst.m, inst.n, u, v, route[0], route[len(route)-1])
				}
				for i := 1; i < len(route); i++ {
					if !d.HasEdge(route[i-1], route[i]) {
						t.Fatalf("HB(%d,%d) AppendRoute(%d,%d) uses non-edge %d-%d",
							inst.m, inst.n, u, v, route[i-1], route[i])
					}
				}
			}
		}
	}
}

// TestImplicitRouteMatchesDenseRoute pins AppendRoute to the exact path
// the existing allocating Route emits, so the zero-alloc rewrite cannot
// silently change served responses.
func TestImplicitRouteMatchesDenseRoute(t *testing.T) {
	for _, inst := range diffInstances {
		hb := core.MustNew(inst.m, inst.n)
		order := hb.Order()
		rng := rand.New(rand.NewSource(42))
		pairs := 2000
		if testing.Short() {
			pairs = 200
		}
		var route []core.Node
		for i := 0; i < pairs; i++ {
			u, v := rng.Intn(order), rng.Intn(order)
			want := hb.Route(u, v)
			route = hb.AppendRoute(u, v, route[:0])
			if len(route) != len(want) {
				t.Fatalf("HB(%d,%d) AppendRoute(%d,%d) len %d, Route len %d",
					inst.m, inst.n, u, v, len(route), len(want))
			}
			for j := range want {
				if route[j] != want[j] {
					t.Fatalf("HB(%d,%d) AppendRoute(%d,%d) = %v, Route = %v",
						inst.m, inst.n, u, v, route, want)
				}
			}
		}
	}
}

func TestImplicitDisjointPathsMatchDense(t *testing.T) {
	for _, inst := range diffInstances {
		hb := core.MustNew(inst.m, inst.n)
		d := graph.Build(hb)
		fs := graph.NewFlowScratch(d)
		order := hb.Order()
		want := hb.ConnectivityFormula()
		rng := rand.New(rand.NewSource(int64(inst.m)*31 + int64(inst.n)))
		pairs := 120
		if testing.Short() {
			pairs = 24
		}
		for i := 0; i < pairs; i++ {
			u := rng.Intn(order)
			v := rng.Intn(order)
			if u == v {
				continue
			}
			paths, err := hb.DisjointPaths(u, v)
			if err != nil {
				t.Fatalf("HB(%d,%d) DisjointPaths(%d,%d): %v", inst.m, inst.n, u, v, err)
			}
			if len(paths) != want {
				t.Fatalf("HB(%d,%d) DisjointPaths(%d,%d): %d paths, want %d",
					inst.m, inst.n, u, v, len(paths), want)
			}
			if err := graph.VerifyDisjointPaths(d, u, v, paths); err != nil {
				t.Fatalf("HB(%d,%d) pair (%d,%d): %v", inst.m, inst.n, u, v, err)
			}
			flow, err := fs.DisjointPaths(u, v, -1)
			if err != nil {
				t.Fatalf("HB(%d,%d) max-flow (%d,%d): %v", inst.m, inst.n, u, v, err)
			}
			if len(flow) != len(paths) {
				t.Fatalf("HB(%d,%d) pair (%d,%d): constructed %d paths, max-flow %d",
					inst.m, inst.n, u, v, len(paths), len(flow))
			}
		}
	}
}
