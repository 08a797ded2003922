package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
)

// The NoC replay grid: HB(3,3) (192 nodes) with adaptive routing and
// the HB escape discipline at the default worker count, the grid of the
// committed BENCH_noc.json. The simulator is replayed in traced runs
// only: as a timed workload of its own its capacity and latency spread
// by 29% over ten runs on a 2-vCPU guest, past any bound the benchmark
// may set.
var nocRates = [...]float64{0.1, 0.2, 0.3, 0.4, 0.5}

const (
	nocM, nocN   = 3, 3
	nocCycles    = 2000
	nocPacketLen = 4
	nocBufDepth  = 2
	nocVCs       = 4
)

func nocConfig(hb *core.HyperButterfly, rate float64, seed int64) noc.Config {
	return noc.Config{
		Cycles: nocCycles, Rate: rate, PacketLen: nocPacketLen,
		BufDepth: nocBufDepth, VCs: nocVCs, Seed: seed,
		MaxRoute: hb.DiameterFormula(),
		Adaptive: &noc.AdaptiveConfig{
			Distance:    hb.Distance,
			AppendRoute: hb.AppendRoute,
			Escape:      noc.NewHBEscape(hb),
		},
	}
}

// checkNoC reports why a run's result is inconsistent, or nil.
func checkNoC(r noc.Result) error {
	switch {
	case r.Deadlocked:
		return fmt.Errorf("deadlocked at cycle %d", r.DeadCycle)
	case r.Injected != r.Delivered+r.Dropped+r.InFlight:
		return fmt.Errorf("injected %d != delivered %d + dropped %d + in flight %d", r.Injected, r.Delivered, r.Dropped, r.InFlight)
	case r.Delivered == 0:
		return fmt.Errorf("delivered nothing")
	}
	return nil
}

// replayNoC builds an engine per rate and runs it twice: the first run
// grows the engine's slabs and is checked, the second must repeat its
// Result exactly and is timed. The simulated statistics repeat exactly
// for a seed, so a change that only speeds up the simulator leaves
// noc.delivered, noc.escape_ratio.r02 and noc.avg_latency_cycles.r01
// as they were.
func replayNoC(seed int64, t *tally, out map[string]float64) error {
	hb, err := core.New(nocM, nocN)
	if err != nil {
		return err
	}
	var (
		news      []float64
		runNs     int64
		events    int64
		delivered int
	)
	for i, rate := range nocRates {
		t0 := time.Now()
		e, err := noc.New(hb, nocConfig(hb, rate, seed))
		news = append(news, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t.attempted.Add(2)
		first, err := e.Run()
		if err != nil {
			t.failed.Add(2)
			return fmt.Errorf("noc replay at rate %g: %w", rate, err)
		}
		if err := checkNoC(first); err != nil {
			t.wrong.Add(1)
			fmt.Fprintf(os.Stderr, "wrong noc result at rate %g: %v\n", rate, err)
		}
		t0 = time.Now()
		res, err := e.Run()
		d := time.Since(t0)
		if err != nil {
			t.failed.Add(1)
			return fmt.Errorf("noc replay at rate %g: %w", rate, err)
		}
		if res != first {
			t.wrong.Add(1)
			fmt.Fprintf(os.Stderr, "noc run at rate %g does not repeat: %+v vs %+v\n", rate, res, first)
		}
		out[fmt.Sprintf("noc.run_ms.r%02d", i+1)] = ms(d)
		runNs += int64(d)
		events += res.FlitEvents
		delivered += res.Delivered
		switch i {
		case 0:
			out["noc.avg_latency_cycles.r01"] = res.AvgLatency
		case 1:
			out["noc.escape_ratio.r02"] = float64(res.Escapes) / float64(max(res.Injected, 1))
		}
	}
	out["noc.new_ms"] = median(news)
	out["noc.ns_per_flit_event"] = float64(runNs) / float64(max(events, 1))
	out["noc.delivered"] = float64(delivered)
	return nil
}
