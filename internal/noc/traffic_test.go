package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/butterfly"
	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hypercube"
	"repro/internal/hyperdebruijn"
)

// Traffic tests: the E-S1/E-S2 configurations (single-flit worms, one
// VC for oblivious routing) and the pattern and injection accounting
// every experiment relies on.

// pathGraph is the line 0-1-...-n-1 with shortest-path routing — small
// enough to hand-verify injection and fault accounting.
type pathGraph struct{ n int }

func (g pathGraph) Order() int { return g.n }

func (g pathGraph) AppendNeighbors(v int, buf []int) []int {
	if v > 0 {
		buf = append(buf, v-1)
	}
	if v < g.n-1 {
		buf = append(buf, v+1)
	}
	return buf
}

func (g pathGraph) route(u, v int) []int {
	step := 1
	if v < u {
		step = -1
	}
	out := []int{u}
	for x := u; x != v; {
		x += step
		out = append(out, x)
	}
	return out
}

// trafficConfig is the E-S1 engine setting: single-flit worms on one
// VC over the network's own routing algorithm.
func trafficConfig(route func(u, v int) []int, maxRoute int, pat Pattern, rate float64, cycles int, seed int64) Config {
	return Config{
		Cycles: cycles, Rate: rate, PacketLen: 1, BufDepth: 1, VCs: 1,
		Pattern: pat, Seed: seed, MaxRoute: maxRoute,
		Route: AppendPath(route), Policy: SingleVC,
	}
}

func hbTraffic(hb *core.HyperButterfly, pat Pattern, rate float64, cycles int, seed int64) Config {
	return trafficConfig(hb.Route, hb.DiameterFormula(), pat, rate, cycles, seed)
}

// adaptiveTraffic is the E-S1 adaptive row and the E-S2 adaptive leg.
func adaptiveTraffic(hb *core.HyperButterfly, pat Pattern, rate float64, cycles int, seed int64) Config {
	return Config{
		Cycles: cycles, Rate: rate, PacketLen: 1, BufDepth: 1, VCs: 4,
		Pattern: pat, Seed: seed, MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb),
	}
}

func mustRun(t *testing.T, g graph.Graph, cfg Config) Result {
	t.Helper()
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkAccounting(t *testing.T, name string, res Result) {
	t.Helper()
	if res.Injected != res.Delivered+res.InFlight+res.Dropped {
		t.Errorf("%s: injected %d != delivered %d + in flight %d + dropped %d",
			name, res.Injected, res.Delivered, res.InFlight, res.Dropped)
	}
}

func TestPatterns(t *testing.T) {
	hb := core.MustNew(1, 3)
	for _, p := range []Pattern{Uniform, Permutation, Reversal, HotSpot} {
		res := mustRun(t, hb, hbTraffic(hb, p, 0.05, 300, 5))
		if res.Delivered == 0 || res.Deadlocked {
			t.Fatalf("%v: %+v", p, res)
		}
	}
	if Uniform.String() != "uniform" || Pattern(9).String() == "" {
		t.Error("Pattern.String broken")
	}
}

// TestSkippedCountsSuppressedInjections: deterministic patterns whose
// only destination is the source count the suppressed slot instead of
// silently undershooting Rate; Uniform redraws instead.
func TestSkippedCountsSuppressedInjections(t *testing.T) {
	line := func(n int, pat Pattern, cycles int) Result {
		g := pathGraph{n: n}
		return mustRun(t, g, trafficConfig(g.route, n, pat, 1, cycles, 1))
	}
	// Reversal on odd order: the midpoint (node 2 of 5) maps to itself.
	if res := line(5, Reversal, 10); res.Skipped != 10 {
		t.Errorf("Reversal midpoint: skipped %d, want 10 (one per cycle)", res.Skipped)
	}
	// HotSpot: the hotspot itself has no valid destination.
	if res := line(4, HotSpot, 8); res.Skipped != 8 {
		t.Errorf("HotSpot source: skipped %d, want 8", res.Skipped)
	}
	// Uniform resamples: on order 2 every slot injects.
	if res := line(2, Uniform, 50); res.Skipped != 0 || res.Injected != 2*50 {
		t.Errorf("Uniform: skipped %d injected %d, want 0 and 100", res.Skipped, res.Injected)
	}
	// Adaptive mode shares the accounting.
	g := pathGraph{n: 5}
	ad, err := BFSAdaptive(g)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, g, Config{
		Cycles: 10, Rate: 1, PacketLen: 1, BufDepth: 1, VCs: 2,
		Pattern: Reversal, Seed: 1, MaxRoute: 5, Adaptive: ad,
	})
	if res.Skipped != 10 {
		t.Errorf("adaptive Reversal midpoint: skipped %d, want 10", res.Skipped)
	}
}

// TestConservation: every injected worm is delivered, in flight or
// dropped, and zero-rate runs carry nothing.
func TestConservation(t *testing.T) {
	hb := core.MustNew(2, 3)
	res := mustRun(t, hb, hbTraffic(hb, Uniform, 0.05, 300, 1))
	if res.Injected == 0 {
		t.Fatal("nothing injected")
	}
	checkAccounting(t, "oblivious", res)
	if empty := mustRun(t, hb, hbTraffic(hb, Uniform, 0, 50, 1)); empty.Injected != 0 || empty.Delivered != 0 {
		t.Fatalf("zero-rate run moved packets: %+v", empty)
	}
}

// TestAdaptiveBasics: the adaptive E-S1 row delivers, conserves worms
// and never deadlocks at the experiment's rate.
func TestAdaptiveBasics(t *testing.T) {
	hb := core.MustNew(2, 3)
	res := mustRun(t, hb, adaptiveTraffic(hb, Uniform, 0.05, 400, 12))
	if res.Delivered == 0 || res.Deadlocked {
		t.Fatalf("adaptive run: %+v", res)
	}
	checkAccounting(t, "adaptive", res)
}

// TestLatencyAtLeastDistance: on an idle network a single worm takes at
// least one cycle per hop of its (shortest) route.
func TestLatencyAtLeastDistance(t *testing.T) {
	hb := core.MustNew(2, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
		if u == v {
			continue
		}
		cfg := hbTraffic(hb, Uniform, 0, 100, 1)
		cfg.Messages = []collectives.Msg{{Src: u, Dst: v}}
		res := mustRun(t, hb, cfg)
		if res.Delivered != 1 || res.MaxLatency < hb.Distance(u, v) {
			t.Fatalf("%d->%d: latency %d below distance %d (%+v)", u, v, res.MaxLatency, hb.Distance(u, v), res)
		}
	}
}

// TestDeterminism: equal seeds give identical results; different seeds
// almost surely differ.
func TestDeterminism(t *testing.T) {
	hb := core.MustNew(1, 3)
	a := mustRun(t, hb, hbTraffic(hb, Uniform, 0.1, 200, 42))
	if b := mustRun(t, hb, hbTraffic(hb, Uniform, 0.1, 200, 42)); a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if c := mustRun(t, hb, hbTraffic(hb, Uniform, 0.1, 200, 43)); a == c {
		t.Fatal("different seeds produced identical results")
	}
}

// TestHotSpotCongestion: a hotspot pattern exhibits strictly worse
// latency than uniform traffic at the same rate.
func TestHotSpotCongestion(t *testing.T) {
	hb := core.MustNew(2, 3)
	uni := mustRun(t, hb, hbTraffic(hb, Uniform, 0.05, 400, 3))
	hot := mustRun(t, hb, hbTraffic(hb, HotSpot, 0.05, 400, 3))
	if hot.AvgLatency <= uni.AvgLatency {
		t.Fatalf("hotspot latency %.2f not worse than uniform %.2f", hot.AvgLatency, uni.AvgLatency)
	}
}

// TestAdaptiveBeatsDeterministicUnderHotspot is the E-S2 claim:
// adaptive routing with the HB escape channel spreads hotspot
// congestion across the m+4 directions and does not lose to oblivious
// two-phase routing, with either one VC or the dateline policy.
func TestAdaptiveBeatsDeterministicUnderHotspot(t *testing.T) {
	hb := core.MustNew(2, 4)
	const cycles, rate, seed = 600, 0.03, 21
	ada := mustRun(t, hb, adaptiveTraffic(hb, HotSpot, rate, cycles, seed))
	single := mustRun(t, hb, hbTraffic(hb, HotSpot, rate, cycles, seed))
	dateline := hbTraffic(hb, HotSpot, rate, cycles, seed)
	dateline.VCs, dateline.Policy = 4, HBDateline(hb)
	dl := mustRun(t, hb, dateline)
	t.Logf("avg latency: adaptive %.2f, oblivious single VC %.2f, oblivious dateline %.2f",
		ada.AvgLatency, single.AvgLatency, dl.AvgLatency)
	for _, det := range []struct {
		name string
		res  Result
	}{{"single VC", single}, {"dateline", dl}} {
		if ada.AvgLatency > det.res.AvgLatency {
			t.Errorf("adaptive latency %.2f worse than oblivious %s %.2f",
				ada.AvgLatency, det.name, det.res.AvgLatency)
		}
	}
}

// TestTrafficRanking is E-S1 at hbsim's defaults: below saturation the
// average latency ranks H < HD < HB < B, tracking route length.
func TestTrafficRanking(t *testing.T) {
	const m, n = 2, 4
	hb := core.MustNew(m, n)
	hd := hyperdebruijn.MustNew(m, n)
	cube := hypercube.MustNew(m + n)
	bf := butterfly.MustNew(m + n)
	lat := func(g graph.Graph, route func(u, v int) []int) float64 {
		res := mustRun(t, g, trafficConfig(route, 2*(m+n), Uniform, 0.05, 2000, 1))
		if res.Deadlocked {
			t.Fatalf("deadlocked below saturation: %+v", res)
		}
		return res.AvgLatency
	}
	h, d, b, f := lat(cube, cube.Route), lat(hd, hd.Route), lat(hb, hb.Route), lat(bf, bf.Route)
	if !(h < d && d < b && b < f) {
		t.Fatalf("ranking broken: H %.2f HD %.2f HB %.2f B %.2f", h, d, b, f)
	}
}

// TestOtherTopologies runs the E-S1 comparison networks with MaxRoute
// at their diameter, so the engine itself rejects any longer route.
func TestOtherTopologies(t *testing.T) {
	cube := hypercube.MustNew(5)
	bf := butterfly.MustNew(4)
	hd := hyperdebruijn.MustNew(2, 3)
	for _, tc := range []struct {
		name  string
		g     graph.Graph
		route func(u, v int) []int
		diam  int
	}{
		{"H(5)", cube, cube.Route, cube.DiameterFormula()},
		{"B(4)", bf, bf.Route, bf.DiameterFormula()},
		{"HD(2,3)", hd, hd.Route, hd.RouteLengthBound()},
	} {
		res := mustRun(t, tc.g, trafficConfig(tc.route, tc.diam, Uniform, 0.05, 200, 2))
		if res.Delivered == 0 || res.Deadlocked {
			t.Fatalf("%s: %+v", tc.name, res)
		}
	}
}

// TestRouteValidationCatchesBadRouter: routes that skip a graph edge
// panic, and routes with the wrong endpoints fail the run.
func TestRouteValidationCatchesBadRouter(t *testing.T) {
	cube := hypercube.MustNew(3)
	e, err := New(cube, trafficConfig(func(u, v int) []int { return []int{v, u} }, 3, Reversal, 0.5, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("route with swapped endpoints accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-edge route not rejected")
		}
	}()
	// Reversal maps 0 to 7, distance 3 in H_3, so the one-hop route
	// uses a non-edge. One worker keeps the panic on this goroutine.
	cfg := trafficConfig(func(u, v int) []int { return []int{u, v} }, 3, Reversal, 0.5, 50, 1)
	cfg.Workers = 1
	mustRun(t, cube, cfg)
}

// TestTrafficConfigValidation: the E-S1 traffic setting rejects a run
// with no cycles, a rate outside [0,1], a negative injection window or
// a fault event naming a node the network does not have.
func TestTrafficConfigValidation(t *testing.T) {
	hb := core.MustNew(1, 3)
	good := hbTraffic(hb, Uniform, 0.1, 10, 1)
	if _, err := New(hb, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for _, m := range []struct {
		name string
		mod  func(*Config)
	}{
		{"zero-cycles", func(c *Config) { c.Cycles = 0 }},
		{"negative-rate", func(c *Config) { c.Rate = -0.5 }},
		{"rate-above-one", func(c *Config) { c.Rate = 2 }},
		{"negative-window", func(c *Config) { c.InjectCycles = -1 }},
		{"fault-off-network", func(c *Config) {
			c.Schedule = faults.Schedule{{Cycle: 0, Node: hb.Order(), Fail: true}}
		}},
	} {
		cfg := good
		m.mod(&cfg)
		if _, err := New(hb, cfg); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
}

// TestScheduleValidation: node and link events naming nonexistent nodes
// are rejected up front.
func TestScheduleValidation(t *testing.T) {
	g := pathGraph{n: 4}
	cfg := trafficConfig(g.route, 3, Uniform, 0.1, 10, 1)
	if _, err := New(g, cfg); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	nodes := cfg
	nodes.Schedule = faults.Schedule{{Cycle: 0, Node: 4, Fail: true}}
	if _, err := New(g, nodes); err == nil {
		t.Error("out-of-range node event accepted")
	}
	links := cfg
	links.Links = faults.LinkSchedule{{Cycle: 0, U: 3, V: 4, Fail: true}}
	if _, err := New(g, links); err == nil {
		t.Error("out-of-range link event accepted")
	}
}

// TestAdaptiveValidation: adaptive mode rejects incomplete settings up
// front, and a route tail longer than MaxRoute when a worm starts.
func TestAdaptiveValidation(t *testing.T) {
	hb := core.MustNew(1, 3)
	good := adaptiveTraffic(hb, Uniform, 0.5, 50, 1)
	if _, err := New(hb, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for _, m := range []struct {
		name string
		mod  func(*Config)
	}{
		{"zero-cycles", func(c *Config) { c.Cycles = 0 }},
		{"rate-above-one", func(c *Config) { c.Rate = 1.5 }},
		{"no-distance", func(c *Config) {
			c.Adaptive = &AdaptiveConfig{AppendRoute: hb.AppendRoute, Escape: NewHBEscape(hb)}
		}},
		{"no-route", func(c *Config) {
			c.Adaptive = &AdaptiveConfig{Distance: hb.Distance, Escape: NewHBEscape(hb)}
		}},
		{"negative-patience", func(c *Config) {
			c.Adaptive = &AdaptiveConfig{Distance: hb.Distance, AppendRoute: hb.AppendRoute,
				Escape: NewHBEscape(hb), Patience: -1}
		}},
	} {
		cfg := good
		m.mod(&cfg)
		if _, err := New(hb, cfg); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
	// A route tail that never gets closer must fail the run.
	long := good
	long.Adaptive = &AdaptiveConfig{
		Distance: hb.Distance,
		AppendRoute: func(u, v int, buf []int) []int {
			for i := 0; i <= hb.DiameterFormula(); i++ {
				buf = append(buf, u)
			}
			return append(buf, v)
		},
		Escape: NewHBEscape(hb),
	}
	e, err := New(hb, long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("route tail longer than MaxRoute accepted")
	}
}

// TestAdaptiveCandidatesStrictlyDecrease: for random (cur, dst) pairs on
// HB(2,3), the minimal candidates adaptive mode picks from — neighbors w
// with Distance(w,dst) == Distance(cur,dst)-1 — are real edges one true
// shortest-path step closer, and there is one exactly when cur != dst.
func TestAdaptiveCandidatesStrictlyDecrease(t *testing.T) {
	hb := core.MustNew(2, 3)
	d := hb.Dense()
	f := func(x, y uint32) bool {
		cur, dst := int(x)%hb.Order(), int(y)%hb.Order()
		bfs := graph.BFS(hb, dst, nil)
		dc := hb.Distance(cur, dst)
		if dc != int(bfs[cur]) {
			return false
		}
		var cands []int
		for _, w := range hb.AppendNeighbors(cur, nil) {
			if hb.Distance(w, dst) == dc-1 {
				cands = append(cands, w)
			}
		}
		if cur == dst {
			return len(cands) == 0
		}
		if len(cands) == 0 {
			return false
		}
		for _, w := range cands {
			if !d.HasEdge(cur, w) || int(bfs[w]) != dc-1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestAdaptiveWalkRealizesDistance checks the property adaptive mode
// relies on: from every node other than the destination some neighbor
// is one step closer, so a walk choosing any such neighbor at every hop
// (here: seeded random) arrives in exactly Distance hops.
func TestAdaptiveWalkRealizesDistance(t *testing.T) {
	hb := core.MustNew(2, 3)
	bf := butterfly.MustNew(4)
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name string
		g    graph.Graph
		dist func(u, v int) int
	}{
		{"HB(2,3)", hb, hb.Distance},
		{"B(4)", bf, bf.Distance},
	} {
		n := tc.g.Order()
		walk := func(x, y uint32) bool {
			u, v := int(x)%n, int(y)%n
			want := tc.dist(u, v)
			hops := 0
			for cur := u; cur != v; hops++ {
				var closer []int
				for _, w := range tc.g.AppendNeighbors(cur, nil) {
					if tc.dist(w, v) == tc.dist(cur, v)-1 {
						closer = append(closer, w)
					}
				}
				if len(closer) == 0 || hops > want {
					return false
				}
				cur = closer[rng.Intn(len(closer))]
			}
			return hops == want
		}
		if err := quick.Check(walk, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestAdaptiveCompleteDelivery: with a finite injection window and a
// drain period, adaptive routing delivers every injected worm.
func TestAdaptiveCompleteDelivery(t *testing.T) {
	hb := core.MustNew(1, 3)
	for _, pat := range []Pattern{Uniform, Permutation, Reversal} {
		cfg := adaptiveTraffic(hb, pat, 0.4, 2000, 7)
		cfg.InjectCycles = 25
		res := mustRun(t, hb, cfg)
		if res.Injected == 0 || res.Delivered != res.Injected || res.InFlight != 0 {
			t.Fatalf("%v: injected %d, delivered %d, in flight %d — want complete delivery",
				pat, res.Injected, res.Delivered, res.InFlight)
		}
	}
}

// TestInjectionWindowSourceRouted: the same window semantics for
// oblivious routing. The burst saturates the network, so it needs the
// deadlock-free dateline policy rather than a single VC.
func TestInjectionWindowSourceRouted(t *testing.T) {
	hb := core.MustNew(1, 3)
	cfg := hbTraffic(hb, Uniform, 0.4, 2000, 11)
	cfg.InjectCycles = 25
	cfg.VCs, cfg.Policy = 2, HBDateline(hb)
	res := mustRun(t, hb, cfg)
	if res.Injected == 0 || res.Delivered != res.Injected || res.InFlight != 0 {
		t.Fatalf("injected %d, delivered %d, in flight %d — want complete delivery",
			res.Injected, res.Delivered, res.InFlight)
	}
}

// TestInjectCyclesZeroKeepsLegacyBehavior: InjectCycles 0 injects for
// the whole run, exactly like InjectCycles == Cycles.
func TestInjectCyclesZeroKeepsLegacyBehavior(t *testing.T) {
	hb := core.MustNew(1, 3)
	with := mustRun(t, hb, hbTraffic(hb, Uniform, 0.5, 50, 3))
	cfg := hbTraffic(hb, Uniform, 0.5, 50, 3)
	cfg.InjectCycles = 50
	if explicit := mustRun(t, hb, cfg); with != explicit {
		t.Fatalf("window == Cycles changed behavior: %+v vs %+v", with, explicit)
	}
	if with.Injected == 0 {
		t.Fatal("nothing injected")
	}
}
