package noc

import (
	"fmt"
	"testing"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/faultroute"
	"repro/internal/faults"
	"repro/internal/graph"
)

// Rerouter tests: the E-CH configuration (single-flit worms, dateline
// VCs, FaultRerouter over the paper's fault router) and hand-built
// scenarios for the in-flight re-path rules.

func newFaultRerouter(t *testing.T, hb *core.HyperButterfly) *FaultRerouter {
	t.Helper()
	r, err := faultroute.New(hb, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &FaultRerouter{R: r}
}

// chaosConfig is hbsim -mode chaos's engine setting.
func chaosConfig(hb *core.HyperButterfly, sch faults.Schedule, rr Rerouter, cycles, inject int, seed int64) Config {
	return Config{
		Cycles: cycles, InjectCycles: inject, Rate: 0.05, Seed: seed,
		PacketLen: 1, BufDepth: 1, VCs: 2, MaxRoute: 4 * hb.DiameterFormula(),
		Route: hb.AppendRoute, Policy: HBDateline(hb), Schedule: sch, Rerouter: rr,
	}
}

// TestChaosRerouteAndConservation is the headline dynamic-fault test:
// random churn within the m+3 bound on HB(2,3), with worms re-pathed by
// the fault router. Every injected worm is accounted for, reroutes
// happen, none fails within the guarantee, and the drain empties the
// network.
func TestChaosRerouteAndConservation(t *testing.T) {
	hb := core.MustNew(2, 3)
	sch, err := faults.RandomChurn(faults.ChurnConfig{
		Order: hb.Order(), Cycles: 400, MaxLive: hb.M() + 3,
		Rate: 0.15, MinDwell: 20, MaxDwell: 60, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sch.MaxLive(hb.Order()) > hb.M()+3 {
		t.Fatalf("schedule exceeds the m+3 bound")
	}
	rr := newFaultRerouter(t, hb)
	res := mustRun(t, hb, chaosConfig(hb, sch, rr, 800, 400, 9))
	checkAccounting(t, "chaos", res)
	if rr.Reroutes.Load() == 0 {
		t.Error("no reroutes happened; the schedule never hit a live route")
	}
	if v := rr.Violations.Load(); v != 0 {
		t.Errorf("%d reroute failures within the m+3 guarantee", v)
	}
	if res.InFlight != 0 || res.Deadlocked {
		t.Errorf("%d worms in flight after the drain window (deadlocked %v)", res.InFlight, res.Deadlocked)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestRerouteInFlightHB: on HB(2,3) with the chaos setting, a worm
// 0->v across the diameter whose route fails two hops ahead of its head
// is delivered on the fault router's walk, with the dateline VCs
// replayed along the kept prefix; refused a walk, it is dropped.
func TestRerouteInFlightHB(t *testing.T) {
	hb := core.MustNew(2, 3)
	v := 0
	for hb.Distance(0, v) < hb.DiameterFormula() {
		v++
	}
	route := hb.Route(0, v)
	// By cycle 2 the single-flit worm has taken two hops: its head is
	// at route[2] and route[4] lies ahead.
	sch := faults.Schedule{{Cycle: 2, Node: route[4], Fail: true}}
	for _, tc := range []struct {
		rr                  Rerouter
		delivered, reroutes int
	}{
		{newFaultRerouter(t, hb), 1, 1},
		{refusingRerouter{}, 0, 0},
	} {
		cfg := chaosConfig(hb, sch, tc.rr, 100, 0, 1)
		cfg.Rate = 0
		cfg.Messages = []collectives.Msg{{Src: 0, Dst: v}}
		res := mustRun(t, hb, cfg)
		reroutes := 0
		if fr, ok := tc.rr.(*FaultRerouter); ok {
			reroutes = int(fr.Reroutes.Load())
		}
		if res.Delivered != tc.delivered || res.Dropped != 1-tc.delivered || reroutes != tc.reroutes {
			t.Errorf("%T: %+v, %d reroutes", tc.rr, res, reroutes)
		}
	}
}

// TestChaosDeterminism: a run with a Rerouter is bit-identical for any
// worker count — injection reroutes run on the parallel workers — and
// when the same engine runs again.
func TestChaosDeterminism(t *testing.T) {
	hb := core.MustNew(2, 3)
	sch, err := faults.RandomChurn(faults.ChurnConfig{
		Order: hb.Order(), Cycles: 200, MaxLive: hb.M() + 3, Rate: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res                  Result
		reroutes, violations int64
	}
	var ref outcome
	for i, workers := range []int{1, 4} {
		rr := newFaultRerouter(t, hb)
		cfg := chaosConfig(hb, sch, rr, 400, 200, 4)
		cfg.Workers = workers
		e, err := New(hb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := outcome{res, rr.Reroutes.Swap(0), rr.Violations.Swap(0)}
			if i == 0 && run == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Fatalf("workers=%d run %d diverged:\n  %+v\nvs %+v", workers, run, got, ref)
			}
		}
	}
	if ref.reroutes == 0 {
		t.Fatal("no reroutes: the schedule never exercised the Rerouter")
	}
}

// TestFaultyRun: nodes failed from cycle 0 are routed around at
// injection, so nothing is dropped and everything drains.
func TestFaultyRun(t *testing.T) {
	hb := core.MustNew(2, 3)
	var sch faults.Schedule
	for _, v := range []int{3, 17, 40, 77, 91} {
		sch = append(sch, faults.Event{Cycle: 0, Node: v, Fail: true})
	}
	rr := newFaultRerouter(t, hb)
	res := mustRun(t, hb, chaosConfig(hb, sch, rr, 600, 300, 9))
	if res.Delivered == 0 || res.Dropped != 0 || res.InFlight != 0 {
		t.Fatalf("static faults: %+v", res)
	}
	checkAccounting(t, "static faults", res)
	if rr.Reroutes.Load() == 0 || rr.Violations.Load() != 0 {
		t.Fatalf("reroutes %d violations %d", rr.Reroutes.Load(), rr.Violations.Load())
	}
}

// refusingRerouter finds no walk at all, as on a line.
type refusingRerouter struct{}

func (refusingRerouter) Fail(int)    {}
func (refusingRerouter) Recover(int) {}
func (refusingRerouter) Reroute(cur, dst int) ([]int, error) {
	return nil, fmt.Errorf("no detour from %d to %d", cur, dst)
}

// TestQueuedPacketsLostAtFailedNode pins the loss semantics on a line
// where every reroute is impossible: failing an interior node drops
// (not leaks) the worms at it and those whose route crosses it, and
// recovery lets later injections through again.
func TestQueuedPacketsLostAtFailedNode(t *testing.T) {
	g := pathGraph{n: 6}
	cfg := trafficConfig(g.route, 6, Reversal, 1, 120, 1) // 0<->5, 1<->4, 2<->3
	cfg.InjectCycles = 10
	cfg.Schedule = faults.Schedule{
		{Cycle: 3, Node: 2, Fail: true},
		{Cycle: 10, Node: 2, Fail: false},
	}
	for _, rr := range []Rerouter{nil, refusingRerouter{}} {
		cfg.Rerouter = rr
		res := mustRun(t, g, cfg)
		checkAccounting(t, "line", res)
		// While node 2 is down it neither injects nor receives.
		if res.Dropped == 0 || res.InFlight != 0 || res.Delivered == 0 || res.Skipped == 0 {
			t.Errorf("rerouter %T: %+v", rr, res)
		}
	}
}

// ringRerouter detours around faults on a bidirectional ring: the
// clockwise walk when it is clear, else the counter-clockwise one.
type ringRerouter struct {
	n      int
	faulty map[int]bool
	calls  [][2]int
}

func (r *ringRerouter) Fail(v int)    { r.faulty[v] = true }
func (r *ringRerouter) Recover(v int) { delete(r.faulty, v) }
func (r *ringRerouter) Reroute(cur, dst int) ([]int, error) {
	r.calls = append(r.calls, [2]int{cur, dst})
	for _, step := range []int{1, r.n - 1} {
		walk := []int{cur}
		for x := cur; x != dst && !r.faulty[x]; {
			x = (x + step) % r.n
			walk = append(walk, x)
		}
		if walk[len(walk)-1] == dst && !r.faulty[dst] {
			return walk, nil
		}
	}
	return nil, fmt.Errorf("ring cut between %d and %d", cur, dst)
}

// TestRerouteInFlight drives one 4-flit worm 0->4 clockwise around an
// 8-ring. By cycle 2 it holds channels 0->1 and 1->2, its head at 2.
//   - Failing node 3, ahead of the head, re-paths it from 2 the other
//     way round (2,1,0,7,6,5,4), keeping its two hops: 8 hops in all.
//   - The same reroute is a Run error when MaxRoute leaves no room.
//   - Failing node 1, where its flits sit, drops it without a reroute.
//   - A single-flit worm has left node 1 by cycle 2 (its flit is at 2),
//     so failing node 1 then leaves it alone.
//
// The policy counts hops in its state, so a new hop whose VC choice
// does not continue the replayed state of the kept prefix shows.
func TestRerouteInFlight(t *testing.T) {
	const n = 8
	replayed := true
	countHops := func(hop, from, to, state int) (int, int) {
		replayed = replayed && state == hop
		return 0, state + 1
	}
	run := func(failed, maxRoute, packetLen int) (Result, *ringRerouter, error) {
		rr := &ringRerouter{n: n, faulty: map[int]bool{}}
		e, err := New(graph.Ring{N: n}, Config{
			Cycles: 100, PacketLen: packetLen, BufDepth: 1, VCs: 1, MaxRoute: maxRoute,
			Route: AppendPath(cwRingRoute(n)), Policy: countHops, Rerouter: rr,
			Messages: []collectives.Msg{{Src: 0, Dst: 4}},
			Schedule: faults.Schedule{{Cycle: 2, Node: failed, Fail: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		return res, rr, err
	}

	res, rr, err := run(3, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Dropped != 0 || len(rr.calls) != 1 || rr.calls[0] != [2]int{2, 4} {
		t.Fatalf("ahead: %+v, reroute calls %v", res, rr.calls)
	}
	if !replayed {
		t.Fatal("the detour's VCs did not continue the kept prefix's policy state")
	}
	// Eight hops at one cycle each, plus three more flits to drain.
	if res.MaxLatency < 8+3 {
		t.Fatalf("latency %d too short for the 8-hop detour", res.MaxLatency)
	}

	if _, _, err := run(3, 4, 4); err == nil {
		t.Fatal("reroute past MaxRoute accepted")
	}

	res, rr, err = run(1, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Delivered != 0 || len(rr.calls) != 0 {
		t.Fatalf("held: %+v, reroute calls %v", res, rr.calls)
	}

	res, rr, err = run(1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Dropped != 0 || len(rr.calls) != 0 {
		t.Fatalf("behind: %+v, reroute calls %v", res, rr.calls)
	}
}

// TestAdaptiveRejectsRerouter: re-pathing is an oblivious-mode feature;
// adaptive mode has its own escape walk, so New says so rather than
// silently ignoring the Rerouter.
func TestAdaptiveRejectsRerouter(t *testing.T) {
	hb := core.MustNew(2, 3)
	cfg := adaptiveTraffic(hb, Uniform, 0.1, 10, 1)
	cfg.Rerouter = refusingRerouter{}
	if _, err := New(hb, cfg); err == nil {
		t.Error("adaptive mode accepted a Rerouter")
	}
}

// TestRerouteParkedWorm: a worm parked behind another worm's channel
// and then re-pathed must move on at once, not wait for that channel.
// On an 8-ring, A (1->3) holds channel 1->2 while its 50 flits pass; B
// (0->5) parks behind it at node 1. Failing node 4 re-paths B from 1 the
// other way round (1,0,7,6,5), which A does not block.
func TestRerouteParkedWorm(t *testing.T) {
	const n, flits = 8, 50
	res := mustRun(t, graph.Ring{N: n}, Config{
		Cycles: 400, PacketLen: flits, BufDepth: 1, VCs: 1, MaxRoute: n,
		Route: AppendPath(cwRingRoute(n)), Policy: SingleVC,
		Rerouter: &ringRerouter{n: n, faulty: map[int]bool{}},
		Messages: []collectives.Msg{{Src: 1, Dst: 3}, {Src: 0, Dst: 5}},
		Schedule: faults.Schedule{{Cycle: 3, Node: 4, Fail: true}},
	})
	if res.Delivered != 2 {
		t.Fatalf("%+v", res)
	}
	// Waiting for A's tail would cost B another ~flits cycles.
	if res.MaxLatency >= 2*flits {
		t.Fatalf("max latency %d: the re-pathed worm stayed parked behind A", res.MaxLatency)
	}
}

// TestRerouteRunStartsClean: a Run leaves its last faults in the
// Rerouter; the next Run recovers them first, so it starts from the
// fault-free picture the engine itself starts from.
func TestRerouteRunStartsClean(t *testing.T) {
	hb := core.MustNew(2, 3)
	rr := newFaultRerouter(t, hb)
	sch := faults.Schedule{{Cycle: 5, Node: 7, Fail: true}, {Cycle: 6, Node: 9, Fail: true}}
	e, err := New(hb, chaosConfig(hb, sch, rr, 50, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rr.R.FaultCount(); got != 2 {
		t.Fatalf("after the run the rerouter holds %d faults, want 2", got)
	}
	e.reset()
	if got := rr.R.FaultCount(); got != 0 {
		t.Fatalf("a new run starts with %d stale faults in the rerouter", got)
	}
}
