package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultroute"
)

// Layer replays time one library call at a time on inputs drawn from
// the workload generators, outside any server, so each layer's cost
// can be set against the served spans.
const (
	replayRoutePairs  = 20000
	replayBatches     = 32
	replayPathPairs   = 48
	replayFaultRoutes = 512
	replayRepeats     = 3 // the timed loops report the median of this many passes
)

// replayCore times (*HyperButterfly).RouteMoves plus Route on fresh
// pairs, core.RouteBatch on /batch columns and DisjointPaths on /paths
// pairs.
func replayCore(in *inputs, out map[string]float64) error {
	hb := core.MustNew(benchM, benchN)
	rs := in.stream(kindRouteRouter, streamReplay)
	pairs := make([][2]int, replayRoutePairs)
	for i := range pairs {
		pairs[i][0], pairs[i][1] = rs.pair()
	}
	var sink int
	passes := make([]float64, replayRepeats)
	for p := range passes {
		t0 := time.Now()
		for _, uv := range pairs {
			sink += len(hb.RouteMoves(uv[0], uv[1])) + len(hb.Route(uv[0], uv[1]))
		}
		passes[p] = float64(time.Since(t0)) / float64(len(pairs))
	}
	out["core.route_ns"] = median(passes)

	bs := in.stream(kindBatchRouter, streamReplay)
	batches := make([]request, replayBatches)
	for i := range batches {
		batches[i] = bs.batch()
	}
	var scratch core.BatchScratch
	for p := range passes {
		t0 := time.Now()
		for i := range batches {
			// Workers 0 is GOMAXPROCS, the servers' default fan-out.
			if err := core.RouteBatch(hb, core.BatchRoute, batches[i].src, batches[i].dst, 0, &scratch); err != nil {
				return fmt.Errorf("replaying RouteBatch: %w", err)
			}
		}
		passes[p] = float64(time.Since(t0)) / float64(replayBatches*batchPairs)
	}
	out["core.routebatch_ns_per_pair"] = median(passes)

	// DisjointPaths as a replica serves it: on the dense backend, whose
	// adjacency is built before timing starts.
	hb.Dense()
	ps := in.stream(kindPaths, streamReplay)
	durs := make([]time.Duration, 0, replayPathPairs)
	case3 := 0
	for i := 0; i < replayPathPairs; i++ {
		u, v := ps.pair()
		hu, bu := hb.Decode(u)
		hv, bv := hb.Decode(v)
		if hu != hv && bu != bv {
			case3++
		}
		t0 := time.Now()
		paths, err := hb.DisjointPaths(u, v)
		durs = append(durs, time.Since(t0))
		if err != nil {
			return fmt.Errorf("replaying DisjointPaths(%d, %d): %w", u, v, err)
		}
		sink += len(paths)
	}
	out["core.disjointpaths_ms_p50"] = ms(percentile(durs, 0.5))
	out["core.case3_share"] = float64(case3) / replayPathPairs
	if sink == 0 {
		return fmt.Errorf("replays produced no routes")
	}
	return nil
}

// replayFaultRoute times SetFaults plus Route on the incremental fault
// router, rotating the fault sets as route-router's /faultroute does.
func replayFaultRoute(in *inputs, out map[string]float64) error {
	hb := core.MustNew(benchM, benchN)
	r, err := faultroute.New(hb, nil)
	if err != nil {
		return err
	}
	s := in.stream(kindRouteRouter, streamReplay)
	durs := make([]time.Duration, 0, replayFaultRoutes)
	fallback := 0
	for i := 0; i < replayFaultRoutes; i++ {
		req := s.faultRoute()
		t0 := time.Now()
		if err := r.SetFaults(in.faults[req.fset]); err != nil {
			return fmt.Errorf("replaying SetFaults: %w", err)
		}
		if _, err := r.Route(req.u, req.v); err != nil {
			return fmt.Errorf("replaying faultroute %d->%d: %w", req.u, req.v, err)
		}
		durs = append(durs, time.Since(t0))
		// "bfs" is the order-sized last resort of the strategy ladder.
		if r.LastStrategy() == "bfs" {
			fallback++
		}
	}
	out["faultroute.route_us_p50"] = us(percentile(durs, 0.5))
	out["faultroute.fallback_share"] = float64(fallback) / replayFaultRoutes
	return nil
}
