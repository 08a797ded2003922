// Ablation benchmarks: each pair quantifies a design choice called out
// in DESIGN.md by benchmarking the chosen implementation against the
// naive alternative it replaced.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/faultroute"
	"repro/internal/graph"
)

// Ablation 1 — butterfly distance: the analytic covering-walk solver
// versus a BFS per query. The analytic form is what makes per-packet
// routing viable on large instances.
func BenchmarkAblationButterflyDistance(b *testing.B) {
	bf := butterfly.MustNew(8)
	rng := rand.New(rand.NewSource(8))
	pairs := make([][2]int, 256)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(bf.Order()), rng.Intn(bf.Order())}
	}
	b.Run("analytic", func(b *testing.B) {
		sum := 0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sum += bf.Distance(p[0], p[1])
		}
		_ = sum
	})
	b.Run("bfs", func(b *testing.B) {
		d := bf.Dense()
		sum := 0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sum += int(graph.BFS(d, p[0], nil)[p[1]])
		}
		_ = sum
	})
}

// Ablation 2 — Theorem 5 case 1: the paper's structured construction
// versus generic Menger max-flow for the same (same-butterfly-label)
// pairs. The structured paths are label arithmetic; the flow needs the
// materialised graph.
func BenchmarkAblationDisjointPathsCase1(b *testing.B) {
	hb := core.MustNew(3, 4)
	d := hb.Dense()
	rng := rand.New(rand.NewSource(34))
	type pair struct{ u, v int }
	pairs := make([]pair, 128)
	for i := range pairs {
		bl := rng.Intn(hb.Butterfly().Order())
		hu, hv := rng.Intn(8), rng.Intn(8)
		for hu == hv {
			hv = rng.Intn(8)
		}
		pairs[i] = pair{hb.Encode(hu, bl), hb.Encode(hv, bl)}
	}
	b.Run("constructive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			paths, err := hb.DisjointPaths(p.u, p.v)
			if err != nil || len(paths) != hb.Degree() {
				b.Fatal(err)
			}
		}
	})
	b.Run("maxflow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			paths, err := graph.DisjointPaths(d, p.u, p.v, hb.Degree())
			if err != nil || len(paths) != hb.Degree() {
				b.Fatalf("flow found %d paths: %v", len(paths), err)
			}
		}
	})
}

// Ablation 3 — fault routing: the strategy ladder (optimal, then
// greedy, then disjoint paths) versus going straight to BFS on the
// faulted graph. The ladder wins because most routes never see a fault.
func BenchmarkAblationFaultRouting(b *testing.B) {
	hb := core.MustNew(2, 5)
	rng := rand.New(rand.NewSource(25))
	faults := rng.Perm(hb.Order())[:hb.M()+3]
	r, err := faultroute.New(hb, faults)
	if err != nil {
		b.Fatal(err)
	}
	excluded := make([]bool, hb.Order())
	for _, f := range faults {
		excluded[f] = true
	}
	pairs := make([][2]int, 256)
	for i := range pairs {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		for u == v || excluded[u] || excluded[v] {
			u, v = rng.Intn(hb.Order()), rng.Intn(hb.Order())
		}
		pairs[i] = [2]int{u, v}
	}
	b.Run("ladder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := r.Route(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bfs-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if graph.BFSPath(hb, p[0], p[1], excluded) == nil {
				b.Fatal("unreachable")
			}
		}
	})
}

// Ablation 4 — diameter: vertex transitivity (one BFS) versus the
// general all-sources sweep, sequential and parallel. Using symmetry is
// what keeps Figure 2's HB column instant while the HD columns need the
// parallel sweep.
func BenchmarkAblationDiameter(b *testing.B) {
	hb := core.MustNew(2, 5)
	d := hb.Dense()
	b.Run("single-bfs-symmetric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ecc, _ := graph.Eccentricity(d, 0); ecc != hb.DiameterFormula() {
				b.Fatal("wrong diameter")
			}
		}
	})
	b.Run("all-sources-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if graph.Diameter(d, 1) != hb.DiameterFormula() {
				b.Fatal("wrong diameter")
			}
		}
	})
	b.Run("all-sources-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if graph.Diameter(d, 0) != hb.DiameterFormula() {
				b.Fatal("wrong diameter")
			}
		}
	})
}
