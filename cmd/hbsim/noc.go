package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	faultsim "repro/internal/faults"
	"repro/internal/hyperdebruijn"
	"repro/internal/noc"
	"repro/internal/profiling"
)

// nocMode runs the E-NC experiment suite on the event-driven NoC
// engine and, when -out is set, writes BENCH_noc.json — the cross-PR
// artifact recording the engine's flit throughput and the HB vs
// hyper-deBruijn saturation curves, with the machine it ran on and the
// invocation that regenerates it. Every field but the flit throughput
// and the env block is seeded, so a rerun reproduces it exactly
// (TestBenchNoCDrift). (The engine-vs-oracle ratio comes
// from BenchmarkNoCObliviousHB33 vs BenchmarkWormholeOracleHB33 in
// internal/noc, whose oracle is test code.) Every adaptive run must end
// with Deadlocked == false or the mode returns an error (exit 1): the
// escape channel's acyclic dependency order is a theorem, so a dynamic
// deadlock is always an engine bug.

const nocPacketLen = 4

type nocParams struct {
	m, n, cycles, vcs, bufDepth int
	rate                        float64
	seed                        int64
	pattern                     noc.Pattern
	out                         string
	command                     string // the invocation, recorded in the artifact
}

type nocPoint struct {
	Rate       float64 `json:"rate"`
	Injected   int     `json:"injected"`
	Delivered  int     `json:"delivered"`
	Dropped    int     `json:"dropped,omitempty"`
	Throughput float64 `json:"throughput"`
	AvgLatency float64 `json:"avg_latency"`
	Escapes    int     `json:"escapes"`
	Deadlocked bool    `json:"deadlocked"`
}

type nocReport struct {
	Env     profiling.Env `json:"env"`
	Command string        `json:"command"`

	M         int    `json:"m"`
	N         int    `json:"n"`
	Cycles    int    `json:"cycles"`
	PacketLen int    `json:"packet_len"`
	BufDepth  int    `json:"buf_depth"`
	VCs       int    `json:"vcs"`
	Pattern   string `json:"pattern"`
	Seed      int64  `json:"seed"`

	EngineFlitEventsPerSec float64 `json:"engine_flit_events_per_sec"`

	HB []nocPoint `json:"hb_saturation"`
	HD []nocPoint `json:"hyperdebruijn_saturation"`

	CollectiveQuietDone  int `json:"collective_quiet_done"`
	CollectiveLoadedDone int `json:"collective_loaded_done"`

	Churn nocPoint `json:"churn"`
}

func hbAdaptiveConfig(hb *core.HyperButterfly) *noc.AdaptiveConfig {
	return &noc.AdaptiveConfig{
		Distance:    hb.Distance,
		AppendRoute: hb.AppendRoute,
		Escape:      noc.NewHBEscape(hb),
	}
}

func point(rate float64, res noc.Result) nocPoint {
	return nocPoint{
		Rate: rate, Injected: res.Injected, Delivered: res.Delivered,
		Dropped: res.Dropped, Throughput: res.Throughput,
		AvgLatency: res.AvgLatency, Escapes: res.Escapes,
		Deadlocked: res.Deadlocked,
	}
}

func nocMode(w io.Writer, p nocParams) error {
	hb, err := core.New(p.m, p.n)
	if err != nil {
		return err
	}
	rep := nocReport{
		Env: profiling.CurrentEnv(), Command: p.command,
		M: p.m, N: p.n, Cycles: p.cycles, PacketLen: nocPacketLen,
		BufDepth: p.bufDepth, VCs: p.vcs, Pattern: p.pattern.String(), Seed: p.seed,
	}

	// Engine flit throughput on the oblivious workload: dateline policy
	// over the library route at the requested (saturating) rate.
	engine, err := noc.New(hb, noc.Config{
		Cycles: p.cycles, Rate: p.rate, PacketLen: nocPacketLen,
		BufDepth: p.bufDepth, VCs: p.vcs, Pattern: p.pattern, Seed: p.seed,
		MaxRoute: hb.DiameterFormula(), Route: hb.AppendRoute, Policy: noc.HBDateline(hb),
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	eres, err := engine.Run()
	if err != nil {
		return err
	}
	rep.EngineFlitEventsPerSec = float64(eres.FlitEvents) / time.Since(t0).Seconds()
	fmt.Fprintf(w, "engine %.0f flit-events/s on HB(%d,%d) at rate %.2f (oblivious, dateline)\n\n",
		rep.EngineFlitEventsPerSec, p.m, p.n, p.rate)

	// Saturation curves: congestion-aware adaptive routing with the
	// escape channel on HB, BFS-table routing with the tree escape on the
	// hyper-deBruijn comparison network.
	hd := hyperdebruijn.MustNew(p.m, p.n)
	hdAd, err := noc.BFSAdaptive(hd)
	if err != nil {
		return err
	}
	deadlocks := 0
	sweep := func(name string, run func(rate float64) (noc.Result, error)) ([]nocPoint, error) {
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\trate\tinjected\tdelivered\tthroughput\tavg latency\tescapes\tdeadlocked\n", name)
		var pts []nocPoint
		for i := 1; i <= 5; i++ {
			rate := p.rate * float64(i) / 5
			res, err := run(rate)
			if err != nil {
				return nil, err
			}
			if res.Deadlocked {
				deadlocks++
			}
			pts = append(pts, point(rate, res))
			fmt.Fprintf(tw, "\t%.3f\t%d\t%d\t%.3f\t%.2f\t%d\t%v\n",
				rate, res.Injected, res.Delivered, res.Throughput, res.AvgLatency,
				res.Escapes, res.Deadlocked)
		}
		tw.Flush()
		fmt.Fprintln(w)
		return pts, nil
	}
	rep.HB, err = sweep(fmt.Sprintf("HB(%d,%d) adaptive+escape", p.m, p.n), func(rate float64) (noc.Result, error) {
		return simulate(hb, noc.Config{
			Cycles: p.cycles, Rate: rate, PacketLen: nocPacketLen,
			BufDepth: p.bufDepth, VCs: p.vcs, Pattern: p.pattern, Seed: p.seed,
			MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptiveConfig(hb),
		})
	})
	if err != nil {
		return err
	}
	rep.HD, err = sweep(fmt.Sprintf("HD(%d,%d) BFS+tree escape", p.m, p.n), func(rate float64) (noc.Result, error) {
		return simulate(hd, noc.Config{
			Cycles: p.cycles, Rate: rate, PacketLen: nocPacketLen,
			BufDepth: p.bufDepth, VCs: p.vcs, Pattern: p.pattern, Seed: p.seed,
			MaxRoute: 4 * (p.m + p.n), Adaptive: hdAd,
		})
	})
	if err != nil {
		return err
	}

	// Collective replay: a structured broadcast on the quiet network,
	// then the three-phase allreduce under saturating background load.
	bcast, err := collectives.BroadcastMsgs(hb, 0)
	if err != nil {
		return err
	}
	qres, err := simulate(hb, noc.Config{
		Cycles: p.cycles, Rate: 0, PacketLen: 2, BufDepth: p.bufDepth, VCs: p.vcs,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptiveConfig(hb), Seed: p.seed,
		Messages: bcast,
	})
	if err != nil {
		return err
	}
	rep.CollectiveQuietDone = qres.CollectiveDone

	allr, err := collectives.AllReduceMsgs(hb)
	if err != nil {
		return err
	}
	lres, err := simulate(hb, noc.Config{
		Cycles: 4 * p.cycles, Rate: p.rate * 0.4, InjectCycles: 3 * p.cycles,
		PacketLen: 2, BufDepth: p.bufDepth, VCs: p.vcs, Pattern: p.pattern,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptiveConfig(hb), Seed: p.seed + 1,
		Messages: allr,
	})
	if err != nil {
		return err
	}
	if lres.Deadlocked {
		deadlocks++
	}
	rep.CollectiveLoadedDone = lres.CollectiveDone
	fmt.Fprintf(w, "broadcast quiet: done at cycle %d; allreduce under load: done at cycle %d\n\n",
		rep.CollectiveQuietDone, rep.CollectiveLoadedDone)

	// Churn resilience: node and link failures arrive mid-flight; worms
	// crossing a failure are dropped, everything else keeps moving and
	// the escape network keeps the survivors deadlock-free.
	nodeChurn, err := faultsim.RandomChurn(faultsim.ChurnConfig{
		Order: hb.Order(), Cycles: p.cycles / 2, MaxLive: hb.M() + 3,
		Rate: 0.02, MinDwell: 20, MaxDwell: 80, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	linkChurn, err := faultsim.RandomLinkChurn(hb, faultsim.ChurnConfig{
		Order: hb.Order(), Cycles: p.cycles / 2, MaxLive: hb.M() + 3,
		Rate: 0.02, MinDwell: 20, MaxDwell: 80, Seed: p.seed + 2,
	})
	if err != nil {
		return err
	}
	cres, err := simulate(hb, noc.Config{
		Cycles: p.cycles, Rate: p.rate * 0.4, InjectCycles: p.cycles / 2,
		PacketLen: nocPacketLen, BufDepth: p.bufDepth, VCs: p.vcs, Pattern: p.pattern,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptiveConfig(hb), Seed: p.seed + 3,
		Schedule: nodeChurn, Links: linkChurn,
	})
	if err != nil {
		return err
	}
	if cres.Deadlocked {
		deadlocks++
	}
	rep.Churn = point(p.rate*0.4, cres)
	fmt.Fprintf(w, "churn: injected %d delivered %d dropped %d escapes %d deadlocked %v\n",
		cres.Injected, cres.Delivered, cres.Dropped, cres.Escapes, cres.Deadlocked)

	if p.out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(p.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", p.out)
	}
	if deadlocks > 0 {
		return fmt.Errorf("%d adaptive run(s) deadlocked despite the escape channel", deadlocks)
	}
	return nil
}
