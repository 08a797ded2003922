package noc

import (
	"testing"

	"repro/internal/core"
)

// Benchmarks for the event-driven NoC engine against the test-only
// cycle-scan oracle (oracle_test.go) on HB(3,3) at saturating load
// (E-NC in EXPERIMENTS.md). The engine-vs-oracle speedup is the ratio
// of the flitev/s metrics of BenchmarkNoCObliviousHB33 and
// BenchmarkWormholeOracleHB33, which run the identical workload:
//
//	go test ./internal/noc -run '^$' -bench 'NoCObliviousHB33$|WormholeOracleHB33$' -benchmem
//
// BENCH_noc.json, emitted by `hbsim -mode noc`, records the engine's
// own flit throughput and the simulation results.

const benchCycles = 300

func benchEngineCfg(hb *core.HyperButterfly) Config {
	return Config{
		Cycles: benchCycles, Rate: 0.5, PacketLen: 4, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Seed: 42,
		Route: hb.AppendRoute, Policy: HBDateline(hb),
	}
}

// BenchmarkNoCObliviousHB33 runs the engine on exactly the oracle's
// workload (dateline policy over the library route) — the direct
// apples-to-apples row.
func BenchmarkNoCObliviousHB33(b *testing.B) {
	hb := core.MustNew(3, 3)
	e, err := New(hb, benchEngineCfg(hb))
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Run() // warm the arenas out of the measurement
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FlitEvents)*float64(b.N)/b.Elapsed().Seconds(), "flitev/s")
}

// BenchmarkNoCAdaptiveHB33 adds congestion-aware routing with the
// escape channel — the configuration the paper-level experiments use.
func BenchmarkNoCAdaptiveHB33(b *testing.B) {
	hb := core.MustNew(3, 3)
	cfg := benchEngineCfg(hb)
	cfg.Route, cfg.Policy = nil, nil
	cfg.Adaptive = hbAdaptive(hb)
	e, err := New(hb, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FlitEvents)*float64(b.N)/b.Elapsed().Seconds(), "flitev/s")
}

// BenchmarkWormholeOracleHB33 is the engine's baseline: the oracle's
// O(worms) per-cycle scan loop with per-packet allocation.
func BenchmarkWormholeOracleHB33(b *testing.B) {
	hb := core.MustNew(3, 3)
	cfg := oracleConfig{
		Cycles: benchCycles, Rate: 0.5, PacketLen: 4, BufDepth: 2, VCs: 4,
		Seed: 42, Route: hb.Route, Policy: HBDateline(hb),
	}
	res, err := runOracle(hb, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runOracle(hb, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FlitEvents)*float64(b.N)/b.Elapsed().Seconds(), "flitev/s")
}
