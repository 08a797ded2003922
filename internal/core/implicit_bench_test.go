package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestImplicitRouteSteadyStateAllocs is the zero-allocation acceptance
// gate for the label-arithmetic router (style of TestConnectivitySteadyStateAllocs):
// with a warmed buffer, AppendRoute over a rolling set of pairs must
// allocate nothing, on a small instance and on HB(10,10).
func TestImplicitRouteSteadyStateAllocs(t *testing.T) {
	for _, inst := range []struct{ m, n int }{{3, 3}, {10, 10}} {
		hb := core.MustNew(inst.m, inst.n)
		order := hb.Order()
		buf := make([]core.Node, 0, hb.DiameterFormula()+1)
		i := 0
		if got := testing.AllocsPerRun(200, func() {
			buf = hb.AppendRoute(i%order, (i*2654435761+7)%order, buf[:0])
			i++
		}); got != 0 {
			t.Errorf("HB(%d,%d): %v allocs per route, want 0", inst.m, inst.n, got)
		}
	}
}

// BenchmarkImplicitRoute measures the zero-alloc AppendRoute on HB(3,3);
// BenchmarkDenseRoute is the allocating Route on the same instance, for
// the ratio in EXPERIMENTS.md.
func BenchmarkImplicitRoute(b *testing.B) {
	hb := core.MustNew(3, 3)
	order := hb.Order()
	buf := make([]core.Node, 0, hb.DiameterFormula()+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = hb.AppendRoute(i%order, (i*2654435761+7)%order, buf[:0])
	}
}

func BenchmarkDenseRoute(b *testing.B) {
	hb := core.MustNew(3, 3)
	order := hb.Order()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hb.Route(i%order, (i*2654435761+7)%order)
	}
}

// BenchmarkImplicitRouteGiant routes on HB(10,10) (~10.5M vertices) —
// impossible for any dense engine in this container — from labels alone.
func BenchmarkImplicitRouteGiant(b *testing.B) {
	hb := core.MustNew(10, 10)
	order := hb.Order()
	buf := make([]core.Node, 0, hb.DiameterFormula()+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = hb.AppendRoute(i%order, (i*2654435761+7)%order, buf[:0])
	}
}

// TestGiantInstanceRouteSmoke is the giant-instance acceptance check:
// construct HB(10,10) (order 10,485,760), route 1000 random pairs, and
// verify every route by label arithmetic — all in well under the 100ms
// budget, with no graph construction anywhere on the path.
func TestGiantInstanceRouteSmoke(t *testing.T) {
	hb := core.MustNew(10, 10)
	if got := hb.Order(); got != 10*1<<20 {
		t.Fatalf("HB(10,10) order %d, want %d", got, 10*1<<20)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]core.Node, 0, hb.DiameterFormula()+1)
	var nbuf []int
	start := time.Now()
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		buf = hb.AppendRoute(u, v, buf[:0])
		if len(buf) != hb.Distance(u, v)+1 {
			t.Fatalf("route %d..%d has %d vertices, want %d", u, v, len(buf), hb.Distance(u, v)+1)
		}
		for j := 1; j < len(buf); j++ {
			nbuf = hb.AppendNeighbors(buf[j-1], nbuf[:0])
			ok := false
			for _, w := range nbuf {
				if w == buf[j] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("route %d..%d uses non-edge %d-%d", u, v, buf[j-1], buf[j])
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("1000 verified routes on HB(10,10) took %v, want <100ms", elapsed)
	}
}

// TestGiantInstanceDisjointPathsSmoke exercises the Theorem 5
// construction at HB(10,10) scale: all 14 paths between random labels,
// verified against label-arithmetic adjacency.
func TestGiantInstanceDisjointPathsSmoke(t *testing.T) {
	hb := core.MustNew(10, 10)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3; i++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v {
			continue
		}
		paths, err := hb.DisjointPaths(u, v)
		if err != nil {
			t.Fatalf("DisjointPaths(%d,%d): %v", u, v, err)
		}
		if len(paths) != hb.ConnectivityFormula() {
			t.Fatalf("DisjointPaths(%d,%d): %d paths, want %d", u, v, len(paths), hb.ConnectivityFormula())
		}
		if err := graph.VerifyDisjointPaths(hb, u, v, paths); err != nil {
			t.Fatalf("pair (%d,%d): %v", u, v, err)
		}
	}
}
