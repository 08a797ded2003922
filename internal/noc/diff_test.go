package noc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The event-driven engine and the cycle-scan oracle of oracle_test.go
// implement the same switching semantics but draw injections from
// different random streams (per-shard geometric gaps vs one Bernoulli
// sweep), so the differential check is statistical: averaged over
// seeds, offered load, delivered throughput, and latency must agree
// within tolerance, and the deadlock verdicts must match exactly. One
// systematic gap is accounted for: the oracle silently discards
// self-addressed draws (effective rate r(1-1/n)) while the engine
// redraws, so throughput is compared after scaling the oracle up by
// n/(n-1).

type stats struct {
	throughput float64 // delivered packets per cycle
	latency    float64
	fraction   float64 // delivered / injected
}

func oracleStats(t *testing.T, g graph.Graph, cfg oracleConfig, seeds []int64) stats {
	t.Helper()
	var s stats
	for _, seed := range seeds {
		cfg.Seed = seed
		res, err := runOracle(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("oracle deadlocked at seed %d: %+v", seed, res)
		}
		s.throughput += float64(res.Delivered) / float64(cfg.Cycles)
		s.latency += res.AvgLatency
		s.fraction += float64(res.Delivered) / float64(res.Injected)
	}
	k := float64(len(seeds))
	return stats{s.throughput / k, s.latency / k, s.fraction / k}
}

func engineStats(t *testing.T, g graph.Graph, cfg Config, seeds []int64) stats {
	t.Helper()
	var s stats
	for _, seed := range seeds {
		cfg.Seed = seed
		e, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("engine deadlocked at seed %d: %+v", seed, res)
		}
		s.throughput += float64(res.Delivered) / float64(cfg.Cycles)
		s.latency += res.AvgLatency
		s.fraction += float64(res.Delivered) / float64(res.Injected)
	}
	k := float64(len(seeds))
	return stats{s.throughput / k, s.latency / k, s.fraction / k}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	d := a/b - 1
	if d < 0 {
		return -d
	}
	return d
}

func checkAgreement(t *testing.T, eng, ora stats, n int) {
	t.Helper()
	adjusted := ora.throughput * float64(n) / float64(n-1)
	if e := relErr(eng.throughput, adjusted); e > 0.15 {
		t.Errorf("throughput diverges: engine %.4f vs oracle %.4f (adjusted %.4f, %.0f%% off)",
			eng.throughput, ora.throughput, adjusted, e*100)
	}
	if e := relErr(eng.latency, ora.latency); e > 0.25 {
		t.Errorf("latency diverges: engine %.2f vs oracle %.2f (%.0f%% off)",
			eng.latency, ora.latency, e*100)
	}
	if eng.fraction < 0.85 || ora.fraction < 0.85 {
		t.Errorf("light load should deliver most packets: engine %.3f, oracle %.3f",
			eng.fraction, ora.fraction)
	}
}

var diffSeeds = []int64{101, 202, 303, 404}

// TestDifferentialRing compares both simulators on the dateline ring at
// a sub-saturation rate.
func TestDifferentialRing(t *testing.T) {
	const n = 8
	ring := graph.Ring{N: n}
	cycles := 6000
	eng := engineStats(t, ring, Config{
		Cycles: cycles, Rate: 0.03, PacketLen: 3, BufDepth: 2, VCs: 2,
		MaxRoute: n - 1, Route: AppendPath(cwRingRoute(n)), Policy: ringDateline(n),
	}, diffSeeds)
	ora := oracleStats(t, ring, oracleConfig{
		Cycles: cycles, Rate: 0.03, PacketLen: 3, BufDepth: 2, VCs: 2,
		Route: cwRingRoute(n), Policy: ringDateline(n),
	}, diffSeeds)
	checkAgreement(t, eng, ora, n)
}

// TestDifferentialHB compares both simulators on HB(2,3) with the
// dateline policy over the library route.
func TestDifferentialHB(t *testing.T) {
	hb := core.MustNew(2, 3)
	cycles := 5000
	eng := engineStats(t, hb, Config{
		Cycles: cycles, Rate: 0.06, PacketLen: 3, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Route: hb.AppendRoute, Policy: HBDateline(hb),
	}, diffSeeds)
	ora := oracleStats(t, hb, oracleConfig{
		Cycles: cycles, Rate: 0.06, PacketLen: 3, BufDepth: 2, VCs: 4,
		Route: hb.Route, Policy: HBDateline(hb),
	}, diffSeeds)
	checkAgreement(t, eng, ora, hb.Order())
}

// TestDifferentialDeadlockParity: the structural property the oracle
// exists to cross-check. A saturated single-VC ring deadlocks in both
// simulators; the dateline discipline rescues both.
func TestDifferentialDeadlockParity(t *testing.T) {
	const n = 8
	ring := graph.Ring{N: n}
	for _, seed := range []int64{3, 17} {
		ores, err := runOracle(ring, oracleConfig{
			Cycles: 4000, Rate: 0.5, PacketLen: 4, BufDepth: 1, VCs: 1,
			Route: cwRingRoute(n), Policy: SingleVC, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ores.Deadlocked {
			t.Fatalf("oracle: single-VC ring survived seed %d: %+v", seed, ores)
		}
		e, err := New(ring, Config{
			Cycles: 4000, Rate: 0.5, PacketLen: 4, BufDepth: 1, VCs: 1,
			MaxRoute: n - 1, Route: AppendPath(cwRingRoute(n)), Policy: SingleVC, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		eres, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !eres.Deadlocked {
			t.Fatalf("engine: single-VC ring survived seed %d: %+v", seed, eres)
		}

		e, err = New(ring, Config{
			Cycles: 4000, Rate: 0.5, PacketLen: 4, BufDepth: 1, VCs: 2,
			MaxRoute: n - 1, Route: AppendPath(cwRingRoute(n)), Policy: ringDateline(n), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		dres, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if dres.Deadlocked {
			t.Fatalf("engine: dateline ring deadlocked at seed %d: %+v", seed, dres)
		}
	}
}
