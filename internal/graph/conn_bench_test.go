package graph_test

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Benchmarks for the Menger connectivity engine (E-T5/E-EC in
// EXPERIMENTS.md). The *Reference benchmarks run the retained pre-PR
// per-pair implementation — a fresh node-split flow network per (s,t)
// with no limit and no shared bound — so before/after is measurable in
// one tree:
//
//	go test ./internal/graph -bench 'Connectivity' -benchmem
//
// BENCH_conn.json (the cross-PR perf trajectory artifact) is emitted by
// TestEmitBenchConn when BENCH_CONN_OUT names an output path.

// BenchmarkLocalConnectivity measures one (s,t) max-flow on a reused
// FlowScratch — the steady-state per-pair cost of every global
// computation. -benchmem must report 0 allocs/op.
func BenchmarkLocalConnectivity(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			fs := graph.NewFlowScratch(d)
			want := hb.Degree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := fs.LocalConnectivity(0, d.Order()-1, -1); got != want {
					b.Fatalf("local connectivity %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkLocalConnectivityReference is the pre-engine per-pair cost:
// node-split network rebuilt from scratch on every call.
func BenchmarkLocalConnectivityReference(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.Degree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graph.LocalConnectivityReference(d, 0, d.Order()-1); got != want {
					b.Fatalf("local connectivity %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkConnectivity measures exact global vertex connectivity via
// the parallel Menger engine (vertex-transitive seed, shared atomic
// best bound, one arena per worker).
func BenchmarkConnectivity(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.Degree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graph.ConnectivityVertexTransitive(d, 0); got != want {
					b.Fatalf("connectivity %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkConnectivityReference is the pre-PR global computation: one
// fresh unbounded flow network per target vertex, serially.
func BenchmarkConnectivityReference(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.Degree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graph.ConnectivityReference(d); got != want {
					b.Fatalf("connectivity %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkEdgeConnectivity measures exact global edge connectivity via
// the parallel engine on the doubled-arc arena.
func BenchmarkEdgeConnectivity(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.Degree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graph.EdgeConnectivity(d, 0); got != want {
					b.Fatalf("edge connectivity %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkEdgeConnectivityReference is the pre-PR serial edge
// connectivity with a fresh directed doubling network per target.
func BenchmarkEdgeConnectivityReference(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.Degree()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graph.EdgeConnectivityReference(d); got != want {
					b.Fatalf("edge connectivity %d, want %d", got, want)
				}
			}
		})
	}
}

// TestConnectivitySteadyStateAllocs is the zero-allocation acceptance
// gate: on every bench instance, a (s,t) flow on a warmed arena — both
// the node-split and the edge flavour — must allocate nothing.
func TestConnectivitySteadyStateAllocs(t *testing.T) {
	for _, inst := range benchInstances {
		t.Run(inst.name, func(t *testing.T) {
			d := core.MustNew(inst.m, inst.n).Dense()
			fs := graph.NewFlowScratch(d)
			efs := graph.NewEdgeFlowScratch(d)
			n := d.Order()
			i := 0
			if got := testing.AllocsPerRun(100, func() {
				fs.LocalConnectivity(i%n, n-1-i%(n/2), -1)
				i++
			}); got != 0 {
				t.Errorf("vertex arena: %v allocs per pair, want 0", got)
			}
			i = 0
			if got := testing.AllocsPerRun(100, func() {
				efs.LocalEdgeConnectivity(i%n, n-1-i%(n/2), -1)
				i++
			}); got != 0 {
				t.Errorf("edge arena: %v allocs per pair, want 0", got)
			}
		})
	}
}

// TestEmitBenchConn writes the connectivity-engine perf baseline to the
// file named by BENCH_CONN_OUT (skipped otherwise), pairing each engine
// path with its retained pre-PR reference on HB(3,3) so the
// before/after ratio is recomputed — not hand-copied — on every run.
// From the repository root:
//
//	BENCH_CONN_OUT="$PWD/BENCH_conn.json" go test ./internal/graph -run 'TestEmitBenchConn$' -v
func TestEmitBenchConn(t *testing.T) {
	out := os.Getenv("BENCH_CONN_OUT")
	if out == "" {
		t.Skip("BENCH_CONN_OUT not set")
	}
	d := core.MustNew(3, 3).Dense()
	fs := graph.NewFlowScratch(d)
	record := func(r testing.BenchmarkResult) benchRecord {
		return benchRecord{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	pairs := []struct {
		name      string
		engine    func(b *testing.B)
		reference func(b *testing.B)
	}{
		{
			name: "local_connectivity_hb33",
			engine: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fs.LocalConnectivity(0, d.Order()-1, -1)
				}
			},
			reference: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.LocalConnectivityReference(d, 0, d.Order()-1)
				}
			},
		},
		{
			name: "connectivity_hb33",
			engine: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.ConnectivityVertexTransitive(d, 0)
				}
			},
			reference: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.ConnectivityReference(d)
				}
			},
		},
		{
			name: "edge_connectivity_hb33",
			engine: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.EdgeConnectivity(d, 0)
				}
			},
			reference: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.EdgeConnectivityReference(d)
				}
			},
		},
	}
	report := make(map[string]benchRecord)
	for _, p := range pairs {
		er := testing.Benchmark(p.engine)
		rr := testing.Benchmark(p.reference)
		rec := record(er)
		if er.NsPerOp() > 0 {
			rec.Speedup = float64(rr.NsPerOp()) / float64(er.NsPerOp())
		}
		report[p.name] = rec
		report[p.name+"_reference"] = record(rr)
		t.Logf("%s: engine %v, reference %v (%.2fx)", p.name, er, rr, rec.Speedup)
	}
	writeBenchArtifact(t, out, "BENCH_CONN_OUT=\"$PWD/BENCH_conn.json\" go test ./internal/graph -run 'TestEmitBenchConn$' -v", report)
}
