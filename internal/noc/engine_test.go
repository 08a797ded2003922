package noc

import (
	"testing"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
)

// hbAdaptive is the canonical adaptive configuration for HB(m,n):
// minimal candidates by the paper's two-phase distance, route tails by
// the allocation-free AppendRoute, escapes on the stage-ordered
// clockwise discipline.
func hbAdaptive(hb *core.HyperButterfly) *AdaptiveConfig {
	return &AdaptiveConfig{
		Distance:    hb.Distance,
		AppendRoute: hb.AppendRoute,
		Escape:      NewHBEscape(hb),
	}
}

func cwRingRoute(n int) func(u, v int) []int {
	return func(u, v int) []int {
		p := []int{u}
		for cur := u; cur != v; {
			cur = (cur + 1) % n
			p = append(p, cur)
		}
		return p
	}
}

func TestConfigValidation(t *testing.T) {
	hb := core.MustNew(2, 3)
	good := Config{
		Cycles: 10, Rate: 0.1, PacketLen: 2, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb),
	}
	if _, err := New(hb, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mut := []struct {
		name string
		mod  func(*Config)
	}{
		{"cycles", func(c *Config) { c.Cycles = 0 }},
		{"rate", func(c *Config) { c.Rate = 1.5 }},
		{"packetlen", func(c *Config) { c.PacketLen = 0 }},
		{"bufdepth", func(c *Config) { c.BufDepth = 0 }},
		{"bufdepth-high", func(c *Config) { c.BufDepth = 1000 }},
		{"vcs", func(c *Config) { c.VCs = 0 }},
		{"vcs-escape", func(c *Config) { c.VCs = 3 }}, // needs 3 escape + 1 adaptive
		{"maxroute", func(c *Config) { c.MaxRoute = 0 }},
		{"shards", func(c *Config) { c.Shards = 3 }},
		{"workers", func(c *Config) { c.Workers = -1 }},
		{"both-modes", func(c *Config) { c.Route = AppendPath(cwRingRoute(4)); c.Policy = SingleVC }},
		{"no-mode", func(c *Config) { c.Adaptive = nil }},
		{"route-only", func(c *Config) { c.Adaptive = nil; c.Route = AppendPath(cwRingRoute(4)) }},
		{"no-escape", func(c *Config) { c.Adaptive = &AdaptiveConfig{Distance: hb.Distance, AppendRoute: hb.AppendRoute} }},
		{"bad-schedule", func(c *Config) { c.Schedule = faults.Schedule{{Cycle: 1, Node: -1, Fail: true}} }},
		{"bad-links", func(c *Config) { c.Links = faults.LinkSchedule{{Cycle: 1, U: 0, V: 0, Fail: true}} }},
		{"bad-msgs", func(c *Config) { c.Messages = []collectives.Msg{{Src: 0, Dst: 0}} }},
	}
	for _, m := range mut {
		cfg := good
		m.mod(&cfg)
		if _, err := New(hb, cfg); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
}

// TestObliviousLightLoad: low-rate oblivious traffic on a ring is fully
// delivered with sane accounting — the basic sanity run.
func TestObliviousLightLoad(t *testing.T) {
	ring := graph.Ring{N: 8}
	e, err := New(ring, Config{
		Cycles: 2000, Rate: 0.01, PacketLen: 3, BufDepth: 4, VCs: 2,
		MaxRoute: 8, Route: AppendPath(cwRingRoute(8)), Policy: ringDateline(8), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("light load deadlocked: %+v", res)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.Injected != res.Delivered+res.InFlight+res.Dropped {
		t.Fatalf("accounting: %+v", res)
	}
	if res.MaxLatency < 3 {
		t.Fatalf("max latency %d below packet length", res.MaxLatency)
	}
	if res.FlitEvents < int64(res.Delivered*3) {
		t.Fatalf("flit events %d below delivered flits", res.FlitEvents)
	}
}

// TestAdaptiveSaturatingNoDeadlock is the acceptance run: HB(3,3) at
// saturating injection with adaptive routing and the escape channel
// completes with Deadlocked == false — the dynamic counterpart of the
// static acyclicity proof.
func TestAdaptiveSaturatingNoDeadlock(t *testing.T) {
	hb := core.MustNew(3, 3)
	e, err := New(hb, Config{
		Cycles: 2000, Rate: 0.5, PacketLen: 4, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("adaptive escape run deadlocked at cycle %d: %+v", res.DeadCycle, res)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered at saturation")
	}
	if res.Injected != res.Delivered+res.InFlight+res.Dropped {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Escapes == 0 {
		t.Fatal("saturating load never exercised the escape channel")
	}
}

// TestWorkerDeterminism: the claim/commit protocol makes results
// bit-identical regardless of worker count.
func TestWorkerDeterminism(t *testing.T) {
	hb := core.MustNew(2, 3)
	base := Config{
		Cycles: 800, Rate: 0.4, PacketLen: 4, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 17,
	}
	var ref Result
	for i, workers := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		e, err := New(hb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res != ref {
			t.Fatalf("workers=%d diverged:\n  %+v\nvs %+v", workers, res, ref)
		}
	}
}

// TestRunRepeatable: the same engine re-run yields the same result (the
// property the zero-alloc gate and the resettable arena rely on).
func TestRunRepeatable(t *testing.T) {
	hb := core.MustNew(2, 3)
	e, err := New(hb, Config{
		Cycles: 600, Rate: 0.3, PacketLen: 3, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 23, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("re-run diverged:\n  %+v\nvs %+v", a, b)
	}
}

// TestNodeChurn: mid-run node failures drop in-flight worms, suppress
// injection at dead nodes, and never corrupt the accounting; recovery
// restores service.
func TestNodeChurn(t *testing.T) {
	hb := core.MustNew(2, 3)
	sched, err := faults.RandomChurn(faults.ChurnConfig{
		Order: hb.Order(), Cycles: 1200, MaxLive: 3, Rate: 0.02,
		MinDwell: 50, MaxDwell: 200, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(hb, Config{
		Cycles: 1500, Rate: 0.2, PacketLen: 3, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 29,
		Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("churn run deadlocked: %+v", res)
	}
	if res.Dropped == 0 {
		t.Fatal("churn never dropped a worm — schedule not exercised")
	}
	if res.Injected != res.Delivered+res.InFlight+res.Dropped {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under churn")
	}
}

// TestLinkChurn: the same, with link failures from RandomLinkChurn.
func TestLinkChurn(t *testing.T) {
	hb := core.MustNew(2, 3)
	links, err := faults.RandomLinkChurn(hb, faults.ChurnConfig{
		Order: hb.Order(), Cycles: 1200, MaxLive: 4, Rate: 0.03,
		MinDwell: 50, MaxDwell: 150, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 {
		t.Fatal("empty link schedule")
	}
	e, err := New(hb, Config{
		Cycles: 1500, Rate: 0.2, PacketLen: 3, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 31,
		Links: links,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("link churn run deadlocked: %+v", res)
	}
	if res.Injected != res.Delivered+res.InFlight+res.Dropped {
		t.Fatalf("accounting: %+v", res)
	}
}

// TestCollectiveReplay: a broadcast plan injected with no background
// load completes in order; an allreduce plan under saturating
// background load still completes, later.
func TestCollectiveReplay(t *testing.T) {
	hb := core.MustNew(2, 3)
	bcast, err := collectives.BroadcastMsgs(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := New(hb, Config{
		Cycles: 4000, Rate: 0, PacketLen: 2, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 1,
		Messages: bcast,
	})
	if err != nil {
		t.Fatal(err)
	}
	resQ, err := quiet.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resQ.CollectiveDone < 0 {
		t.Fatalf("quiet broadcast never completed: %+v", resQ)
	}
	if resQ.Delivered != len(bcast) {
		t.Fatalf("delivered %d of %d plan messages", resQ.Delivered, len(bcast))
	}

	allr, err := collectives.AllReduceMsgs(hb)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := New(hb, Config{
		Cycles: 8000, Rate: 0.2, InjectCycles: 6000, PacketLen: 2, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 2,
		Messages: allr,
	})
	if err != nil {
		t.Fatal(err)
	}
	resL, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resL.Deadlocked {
		t.Fatalf("loaded allreduce deadlocked: %+v", resL)
	}
	if resL.CollectiveDone < 0 {
		t.Fatalf("allreduce under load never completed: %+v", resL)
	}
	if resL.CollectiveDone <= resQ.CollectiveDone {
		t.Fatalf("background load did not stretch the collective: %d <= %d",
			resL.CollectiveDone, resQ.CollectiveDone)
	}
}

// TestTreeEscapeAdaptive: the generic BFS-tree escape keeps an
// arbitrary graph (hyper-deBruijn exercised in the bench; a ring here)
// deadlock-free under the same saturating load that wedges SingleVC.
func TestTreeEscapeAdaptive(t *testing.T) {
	ring := graph.Ring{N: 8}
	ad, err := BFSAdaptive(ring)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ring, Config{
		Cycles: 4000, Rate: 0.5, PacketLen: 4, BufDepth: 1, VCs: 2,
		MaxRoute: 2 * 8, Seed: 3, Adaptive: ad,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("tree-escape ring deadlocked: %+v", res)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestChurnSlotRecycling: dropCrossing runs after the act/nxt swap, so
// a dropped worm's slot can still sit in s.act for the coming cycle.
// Recycling the slot before that stale entry is consumed would let the
// next injectShard pop it (LIFO) and append a second act entry for the
// same slot — the new worm would then be claimed and committed twice
// per cycle for the rest of its life. Drive the serial loop by hand
// under combined node/link churn with active injection and assert the
// no-duplicate invariant directly on every shard's act list.
func TestChurnSlotRecycling(t *testing.T) {
	hb := core.MustNew(2, 3)
	sched, err := faults.RandomChurn(faults.ChurnConfig{
		Order: hb.Order(), Cycles: 900, MaxLive: 2, Rate: 0.05,
		MinDwell: 10, MaxDwell: 60, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	links, err := faults.RandomLinkChurn(hb, faults.ChurnConfig{
		Order: hb.Order(), Cycles: 900, MaxLive: 6, Rate: 0.2,
		MinDwell: 5, MaxDwell: 30, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(hb, Config{
		Cycles: 1000, Rate: 0.5, PacketLen: 3, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb), Seed: 33,
		Schedule: sched, Links: links,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.reset()
	e.applyEvents(0)
	seen := make(map[int32]bool)
	deferred := 0
	for c := 0; ; {
		for si := range e.shards {
			e.injectShard(&e.shards[si], c)
		}
		for si := range e.shards {
			s := &e.shards[si]
			for k := range seen {
				delete(seen, k)
			}
			for _, slot := range s.act {
				if seen[slot] {
					t.Fatalf("cycle %d: slot %d appears twice in shard %d act list", c, slot, s.id)
				}
				seen[slot] = true
			}
		}
		for si := range e.shards {
			e.claimShard(&e.shards[si], c)
		}
		for si := range e.shards {
			e.commitShard(&e.shards[si], c)
		}
		next, stop := e.postCycle(c)
		if stop {
			break
		}
		e.applyEvents(next)
		for si := range e.shards {
			deferred += len(e.shards[si].dfree)
		}
		c = next
	}
	if deferred == 0 {
		t.Fatal("churn never deferred a dropped worm's slot — scenario not exercised")
	}
}

// TestDeadlockFastForwardParity: the fast-forward path must charge the
// idle budget exactly like per-cycle accounting, reporting DeadCycle as
// the cycle at which cumulative idle first reaches DeadlockAt. Four
// messages on a single-VC 4-ring wedge in a channel-wait cycle: all
// worms acquire their first hop and inject a flit at cycle 0, block and
// park at cycle 1 (idle=1), and a distant link event makes the engine
// fast-forward instead of stepping. Idle therefore reaches DeadlockAt
// at cycle DeadlockAt, jump or no jump.
func TestDeadlockFastForwardParity(t *testing.T) {
	const n = 4
	ring := graph.Ring{N: n}
	msgs := []collectives.Msg{
		{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 0}, {Src: 3, Dst: 1},
	}
	far := faults.LinkSchedule{
		{Cycle: 2000, U: 0, V: 1, Fail: true},
		{Cycle: 2010, U: 0, V: 1, Fail: false},
	}
	e, err := New(ring, Config{
		Cycles: 4000, PacketLen: 4, BufDepth: 1, VCs: 1, DeadlockAt: 64,
		MaxRoute: n - 1, Route: AppendPath(cwRingRoute(n)), Policy: SingleVC,
		Messages: msgs, Links: far,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("wedged ring not detected: %+v", res)
	}
	if res.DeadCycle != 64 {
		t.Fatalf("fast-forward DeadCycle = %d, want 64 (idle starts at cycle 1)", res.DeadCycle)
	}
}
