// Benchmark harness: one benchmark per experiment in DESIGN.md §3, plus
// micro-benchmarks for the routines a downstream user would hammer.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/butterfly"
	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/embed"
	"repro/internal/faultroute"
	"repro/internal/graph"
	"repro/internal/hyperdebruijn"
	"repro/internal/layout"
	"repro/internal/noc"
	"repro/internal/tables"
)

// BenchmarkFigure1 (E-F1) regenerates the Figure 1 comparison with all
// cells measured exactly at (m,n) = (2,3).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := tables.Figure1(2, 3, true)
		if len(rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure2 (E-F2) regenerates Figure 2 in quick mode (formula
// diameters for the 16K-node HD instances; -exact equivalent lives in
// cmd/hbtables).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := tables.Figure2(false)
		if rows[0].Nodes != 16384 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTheorem2Construction (E-T2) materialises HB(3,6) (3072 nodes)
// and checks the node/edge counts.
func BenchmarkTheorem2Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hb := core.MustNew(3, 6)
		d := graph.Build(hb)
		if d.Order() != hb.Order() || d.EdgeCount() != hb.EdgeCountFormula() {
			b.Fatal("Theorem 2 mismatch")
		}
	}
}

// BenchmarkTheorem3Diameter (E-T3) measures the diameter of HB(3,6) by
// single-source BFS (valid by vertex transitivity).
func BenchmarkTheorem3Diameter(b *testing.B) {
	hb := core.MustNew(3, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecc, _ := graph.Eccentricity(hb, hb.Identity())
		if ecc != hb.DiameterFormula() {
			b.Fatalf("diameter %d", ecc)
		}
	}
}

// BenchmarkRemark6Route (E-R6) times the optimal two-phase routing on
// HB(4,8) (one million nodes, label arithmetic only).
func BenchmarkRemark6Route(b *testing.B) {
	hb := core.MustNew(4, 8)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(hb.Order()), rng.Intn(hb.Order())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if len(hb.RouteMoves(p[0], p[1])) != hb.Distance(p[0], p[1]) {
			b.Fatal("suboptimal route")
		}
	}
}

// BenchmarkDistance times the analytic distance function alone.
func BenchmarkDistance(b *testing.B) {
	hb := core.MustNew(4, 8)
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(hb.Order()), rng.Intn(hb.Order())}
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sum += hb.Distance(p[0], p[1])
	}
	_ = sum
}

// BenchmarkTheorem5DisjointPaths (E-T5) constructs and verifies the m+4
// disjoint paths on HB(2,4), cycling through all three proof cases.
func BenchmarkTheorem5DisjointPaths(b *testing.B) {
	hb := core.MustNew(2, 4)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v {
			continue
		}
		paths, err := hb.DisjointPaths(u, v)
		if err != nil || len(paths) != hb.Degree() {
			b.Fatalf("paths %d err %v", len(paths), err)
		}
	}
}

// BenchmarkConnectivityExact times the full max-flow connectivity
// computation that backs Corollary 1 on HB(1,3).
func BenchmarkConnectivityExact(b *testing.B) {
	hb := core.MustNew(1, 3)
	d := hb.Dense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.ConnectivityVertexTransitive(d, 1) != hb.ConnectivityFormula() {
			b.Fatal("connectivity mismatch")
		}
	}
}

// BenchmarkLemma2CycleEmbed (E-L2) embeds and verifies a near-maximal
// even cycle in HB(2,4).
func BenchmarkLemma2CycleEmbed(b *testing.B) {
	hb := core.MustNew(2, 4)
	k := hb.Order() - 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc, err := embed.EvenCycle(hb, k)
		if err != nil || len(cyc) != k {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem4MeshOfTrees (E-T4) embeds MT(2^2, 2^4) in HB(4,4).
func BenchmarkTheorem4MeshOfTrees(b *testing.B) {
	hb := core.MustNew(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := embed.MeshOfTrees(hb, 2, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemark10FaultRoute (E-R10) routes around m+3 random faults.
func BenchmarkRemark10FaultRoute(b *testing.B) {
	hb := core.MustNew(2, 4)
	hb.Dense()
	rng := rand.New(rand.NewSource(4))
	faults := rng.Perm(hb.Order())[:hb.M()+3]
	r, err := faultroute.New(hb, faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v || r.Faulty(u) || r.Faulty(v) {
			continue
		}
		if _, err := r.Route(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcast (E-B1) runs the structured two-phase broadcast on
// HB(3,5) (1280 nodes).
func BenchmarkBroadcast(b *testing.B) {
	hb := core.MustNew(3, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := broadcast.TwoPhase(hb, hb.Identity())
		if err != nil || res.Rounds != hb.DiameterFormula() {
			b.Fatalf("rounds %d err %v", res.Rounds, err)
		}
	}
}

// BenchmarkTraffic (E-S1) runs matched uniform traffic on HB(2,4) and
// HD(2,6); the per-network sub-benchmarks let the regression be read
// directly off the -bench output.
func BenchmarkTraffic(b *testing.B) {
	hb := core.MustNew(2, 4)
	hd := hyperdebruijn.MustNew(2, 6)
	cases := []struct {
		name  string
		g     graph.Graph
		route func(u, v int, buf []int) []int
	}{
		{"HB_2_4", hb, hb.AppendRoute},
		{"HD_2_6", hd, noc.AppendPath(hd.Route)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			e, err := noc.New(c.g, noc.Config{
				Cycles: 500, Rate: 0.05, PacketLen: 1, BufDepth: 1, VCs: 1,
				Pattern: noc.Uniform, Seed: 11, MaxRoute: hb.DiameterFormula(), // = HD(2,6)'s route bound
				Route: c.route, Policy: noc.SingleVC,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := e.Run()
				if err != nil || res.Delivered == 0 {
					b.Fatalf("delivered %d err %v", res.Delivered, err)
				}
			}
		})
	}
}

// BenchmarkButterflyDistance times the core analytic routine (the
// covering-walk optimisation) across butterfly sizes.
func BenchmarkButterflyDistance(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		bf := butterfly.MustNew(n)
		rng := rand.New(rand.NewSource(int64(n)))
		pairs := make([][2]int, 1024)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(bf.Order()), rng.Intn(bf.Order())}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sum += bf.Distance(p[0], p[1])
			}
			_ = sum
		})
	}
}

// BenchmarkHamiltonianCycle times the binary-counting-laps construction
// behind Lemma 2.
func BenchmarkHamiltonianCycle(b *testing.B) {
	bf := butterfly.MustNew(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(bf.HamiltonianCycle()) != bf.Order() {
			b.Fatal("bad cycle")
		}
	}
}

// BenchmarkBFS is the baseline graph-sweep cost on HB(3,6).
func BenchmarkBFS(b *testing.B) {
	hb := core.MustNew(3, 6)
	d := hb.Dense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := graph.BFS(d, 0, nil)
		if dist[d.Order()-1] == graph.Unreachable {
			b.Fatal("disconnected")
		}
	}
}

// BenchmarkElection (E-LE) runs both election protocols on HB(2,4).
func BenchmarkElection(b *testing.B) {
	hb := core.MustNew(2, 4)
	rng := rand.New(rand.NewSource(24))
	ids := make([]int64, hb.Order())
	for v, p := range rng.Perm(hb.Order()) {
		ids[v] = int64(p)
	}
	b.Run("floodmax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := election.FloodMax(hb, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := election.TreeElect(hb, ids, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAllReduce (extension) compares the structured HB all-reduce
// with the global-tree baseline on HB(3,5).
func BenchmarkAllReduce(b *testing.B) {
	hb := core.MustNew(3, 5)
	vals := make([]int64, hb.Order())
	for i := range vals {
		vals[i] = int64(i)
	}
	b.Run("structured", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := collectives.AllReduceHB(hb, vals, collectives.Sum); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := collectives.AllReduceTree(hb, 0, vals, collectives.Sum); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFan (E-T5 extension) times node-to-set disjoint paths at the
// full fan size m+4.
func BenchmarkFan(b *testing.B) {
	hb := core.MustNew(2, 4)
	hb.Dense()
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.Intn(hb.Order())
		targets := make([]int, 0, hb.Degree())
		used := map[int]bool{src: true}
		for len(targets) < hb.Degree() {
			x := rng.Intn(hb.Order())
			if !used[x] {
				used[x] = true
				targets = append(targets, x)
			}
		}
		if _, err := hb.Fan(src, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveTraffic (E-S2) runs adaptive routing with the HB
// escape channel under hotspot load on HB(2,4).
func BenchmarkAdaptiveTraffic(b *testing.B) {
	hb := core.MustNew(2, 4)
	e, err := noc.New(hb, noc.Config{
		Cycles: 500, Rate: 0.03, PacketLen: 1, BufDepth: 1, VCs: 4,
		Pattern: noc.HotSpot, Seed: 9, MaxRoute: hb.DiameterFormula(),
		Adaptive: &noc.AdaptiveConfig{
			Distance:    hb.Distance,
			AppendRoute: hb.AppendRoute,
			Escape:      noc.NewHBEscape(hb),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil || res.Delivered == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkCubeTree times the recursive tree-in-hypercube construction
// behind Theorem 4.
func BenchmarkCubeTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := embed.CubeTree(12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBisection times the layout cuts on HB(3,6).
func BenchmarkBisection(b *testing.B) {
	hb := core.MustNew(3, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := layout.BisectionUpperBound(hb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWormhole (E-W1) runs flit-level wormhole switching on the
// noc engine on HB(2,3) with the dateline VC policy at heavy load.
func BenchmarkWormhole(b *testing.B) {
	hb := core.MustNew(2, 3)
	e, err := noc.New(hb, noc.Config{
		Cycles: 500, Rate: 0.2, PacketLen: 4, BufDepth: 1, VCs: 2,
		MaxRoute: hb.DiameterFormula(), Policy: noc.HBDateline(hb), Route: hb.AppendRoute, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil || res.Deadlocked {
			b.Fatalf("err %v deadlocked %v", err, res.Deadlocked)
		}
	}
}

// BenchmarkScan times the two-pass tree prefix on HB(3,4).
func BenchmarkScan(b *testing.B) {
	hb := core.MustNew(3, 4)
	vals := make([]int64, hb.Order())
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := collectives.Scan(hb, 0, vals, collectives.Sum); err != nil {
			b.Fatal(err)
		}
	}
}
