// Package noc is the repository's network simulator: a discrete-event
// engine for flit-level wormhole switching behind every dynamic
// experiment (traffic, chaos, wormhole deadlock, NoC saturation). It is
// the production-scale successor to an O(nodes x cycles) scan loop,
// which the package's test code keeps as its differential oracle
// (oracle_test.go). Three ideas carry the throughput:
//
//   - event-driven injection: each node's next injection cycle is drawn
//     geometrically and kept in a per-shard min-heap, so a cycle costs
//     O(worms that can move), not O(nodes);
//   - parked worms: a worm whose head cannot advance and whose body
//     cannot shift registers as a waiter on the channel it needs and
//     costs nothing until a release wakes it — under saturation almost
//     all worms are blocked, which is exactly where the old loops burn
//     their time;
//   - a zero-alloc arena (the internal/graph kernel and Menger
//     FlowScratch idiom): worm state lives in flat per-shard slabs with
//     fixed-capacity sub-slices, built once and reset in place, so a
//     steady-state Run performs no heap allocation
//     (TestNoCSteadyStateAllocs).
//
// The engine runs in two routing modes. Oblivious mode replays a fixed
// Route/VCPolicy pair (policy.go; the same contract as the scan-loop
// oracle). Adaptive mode implements
// congestion-aware routing with an explicit escape channel in the style
// of Duato's protocol: each hop chooses among the minimal next hops —
// the first vertices of the paper's disjoint candidate paths — by local
// virtual-channel occupancy, and a worm blocked for Patience cycles
// splices onto an Escape walk whose channels are totally ordered by
// stage (stage-decreasing link weights, the gem5 butterfly discipline),
// so the escape channel-dependency graph is provably acyclic and the
// network cannot deadlock. See escape.go for the argument and the
// conformance escape-acyclic invariant for the machine check.
//
// In oblivious mode a Rerouter (FaultRerouter over the paper's fault
// router) re-paths worms around nodes that fail mid-flight instead of
// dropping them; see reroute.go.
//
// Worker goroutines resolve channel contention with a two-phase
// claim/commit protocol (atomic minimum on a priority key), which makes
// results bit-identical for any worker count.
package noc

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/collectives"
	"repro/internal/faults"
	"repro/internal/graph"
)

// AdaptiveConfig selects adaptive routing with escape-channel deadlock
// freedom.
type AdaptiveConfig struct {
	// Distance returns the shortest-path distance; minimal candidates w
	// of a hop from u toward dst satisfy Distance(w,dst) ==
	// Distance(u,dst)-1.
	Distance func(u, v int) int
	// AppendRoute appends a route from u to v (both endpoints included)
	// to buf; called once per injection for the tail after the chosen
	// first hop.
	AppendRoute func(u, v int, buf []int) []int
	// Escape is the stage-ordered escape discipline; it reserves the top
	// Escape.Classes() virtual channels of every link.
	Escape Escape
	// Patience is how many blocked cycles a worm tolerates before
	// splicing onto the escape walk (default 2).
	Patience int
}

// Config parameterises an engine. Exactly one of (Route, Policy) —
// oblivious mode — or Adaptive must be set.
type Config struct {
	Cycles       int
	Rate         float64 // per-node per-cycle injection probability
	InjectCycles int     // cycles during which injection runs (0 = Cycles)
	PacketLen    int     // flits per packet (>= 1)
	BufDepth     int     // flit buffer depth per (link, VC), 1..127
	VCs          int     // virtual channels per link, 1..32
	Pattern      Pattern // traffic pattern (uniform, permutation, ...)
	Seed         int64
	Workers      int // goroutines (0 = min(Shards, GOMAXPROCS))
	Shards       int // power-of-two logical shards (0 = 8); fixes determinism
	DeadlockAt   int // motionless cycles declared a deadlock (0 = 64)
	MaxRoute     int // upper bound on hops of any injected route

	// Route appends the oblivious route from u to v, both endpoints
	// included, to buf and returns the extended slice. The engine hands
	// it a per-shard buffer, so an allocation-free route function (such
	// as core.HyperButterfly.AppendRoute) keeps injection allocation-free.
	Route  func(u, v int, buf []int) []int
	Policy VCPolicy // oblivious: VC choice per hop

	Adaptive *AdaptiveConfig

	Schedule faults.Schedule     // node churn applied mid-run
	Rerouter Rerouter            // oblivious: re-paths worms around node churn
	Links    faults.LinkSchedule // link churn applied mid-run
	Messages []collectives.Msg   // collective replay plan injected on top
}

// AppendPath adapts a route function that returns a fresh path to the
// append style of Config.Route, for a topology without an
// allocation-free router; it still allocates once per packet.
func AppendPath(route func(u, v int) []int) func(u, v int, buf []int) []int {
	return func(u, v int, buf []int) []int { return append(buf, route(u, v)...) }
}

// Result reports a run; the JSON shape is covered by a golden test.
type Result struct {
	Cycles         int     `json:"cycles"`
	Injected       int     `json:"injected"`
	Delivered      int     `json:"delivered"`
	Dropped        int     `json:"dropped"`
	Skipped        int     `json:"skipped"`
	InFlight       int     `json:"in_flight"`
	FlitEvents     int64   `json:"flit_events"`
	AvgLatency     float64 `json:"avg_latency"`
	MaxLatency     int     `json:"max_latency"`
	Throughput     float64 `json:"throughput"`
	Escapes        int     `json:"escapes"`
	Deadlocked     bool    `json:"deadlocked"`
	DeadCycle      int     `json:"dead_cycle"`
	CollectiveDone int     `json:"collective_done"` // -1 when no plan or incomplete
}

func (cfg *Config) validate(order int) error {
	switch {
	case cfg.Cycles < 1:
		return fmt.Errorf("noc: Cycles %d < 1", cfg.Cycles)
	case cfg.Rate < 0 || cfg.Rate > 1:
		return fmt.Errorf("noc: Rate %v outside [0,1]", cfg.Rate)
	case cfg.InjectCycles < 0:
		return fmt.Errorf("noc: InjectCycles %d < 0", cfg.InjectCycles)
	case cfg.PacketLen < 1:
		return fmt.Errorf("noc: PacketLen %d < 1", cfg.PacketLen)
	case cfg.BufDepth < 1 || cfg.BufDepth > 127:
		return fmt.Errorf("noc: BufDepth %d outside [1,127]", cfg.BufDepth)
	case cfg.VCs < 1 || cfg.VCs > 32:
		return fmt.Errorf("noc: VCs %d outside [1,32]", cfg.VCs)
	case cfg.MaxRoute < 1:
		return fmt.Errorf("noc: MaxRoute %d < 1", cfg.MaxRoute)
	case cfg.Workers < 0:
		return fmt.Errorf("noc: Workers %d < 0", cfg.Workers)
	case cfg.DeadlockAt < 0:
		return fmt.Errorf("noc: DeadlockAt %d < 0", cfg.DeadlockAt)
	}
	if s := cfg.Shards; s != 0 && (s < 1 || s > 256 || s&(s-1) != 0) {
		return fmt.Errorf("noc: Shards %d is not a power of two in [1,256]", s)
	}
	oblivious := cfg.Route != nil || cfg.Policy != nil
	if oblivious && (cfg.Route == nil || cfg.Policy == nil) {
		return fmt.Errorf("noc: oblivious mode needs both Route and Policy")
	}
	if oblivious == (cfg.Adaptive != nil) {
		return fmt.Errorf("noc: exactly one of Route+Policy or Adaptive is required")
	}
	if cfg.Rerouter != nil && cfg.Adaptive != nil {
		return fmt.Errorf("noc: a Rerouter needs oblivious mode (Route+Policy)")
	}
	if ad := cfg.Adaptive; ad != nil {
		switch {
		case ad.Distance == nil || ad.AppendRoute == nil:
			return fmt.Errorf("noc: Adaptive needs Distance and AppendRoute")
		case ad.Escape == nil:
			return fmt.Errorf("noc: Adaptive needs an Escape discipline")
		case ad.Patience < 0:
			return fmt.Errorf("noc: Patience %d < 0", ad.Patience)
		case cfg.VCs < ad.Escape.Classes()+1:
			return fmt.Errorf("noc: adaptive routing needs VCs >= %d (1 adaptive + %d escape), got %d",
				ad.Escape.Classes()+1, ad.Escape.Classes(), cfg.VCs)
		}
	}
	if err := cfg.Schedule.Validate(order); err != nil {
		return err
	}
	if err := cfg.Links.Validate(order); err != nil {
		return err
	}
	return collectives.ValidateMsgs(cfg.Messages, order)
}

// New builds an engine for cfg on g. The constructor allocates; Run
// does not (after a warm-up run reaches the high-water marks).
func New(g graph.Graph, cfg Config) (*Engine, error) {
	if err := cfg.validate(g.Order()); err != nil {
		return nil, err
	}
	d := graph.Build(g)
	n := d.Order()
	e := &Engine{cfg: cfg, d: d, n: n}

	e.nshards = cfg.Shards
	if e.nshards == 0 {
		e.nshards = 8
	}
	for 1<<e.shardBits < e.nshards {
		e.shardBits++
	}
	e.workers = cfg.Workers
	if e.workers == 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.workers > e.nshards {
		e.workers = e.nshards
	}
	e.deadlockAt = cfg.DeadlockAt
	if e.deadlockAt == 0 {
		e.deadlockAt = 64
	}
	e.injectUntil = cfg.InjectCycles
	if e.injectUntil == 0 {
		e.injectUntil = cfg.Cycles
	}
	e.vcs = cfg.VCs
	e.escBase = cfg.VCs
	if ad := cfg.Adaptive; ad != nil {
		e.adaptive = true
		e.escBase = cfg.VCs - ad.Escape.Classes()
		e.patience = int32(ad.Patience)
		if e.patience == 0 {
			e.patience = 2
		}
	}
	hopCap := cfg.MaxRoute
	if e.adaptive {
		hopCap += cfg.Adaptive.Escape.MaxLen()
	}
	e.hopCap = hopCap

	e.offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		e.offsets[v+1] = e.offsets[v] + int32(d.Degree(v))
	}
	totalEdges := int(e.offsets[n])
	e.owner = make([]int32, totalEdges*e.vcs)
	e.occ = make([]int32, totalEdges*e.vcs)
	e.claim = make([]uint64, totalEdges*e.vcs)
	e.waiters = make([][]waitEntry, totalEdges)
	e.faulty = make([]bool, n)
	e.deadEdge = make([]bool, totalEdges)
	e.dynamic = len(cfg.Schedule) > 0 || len(cfg.Links) > 0

	e.schedule = append(faults.Schedule(nil), cfg.Schedule...)
	e.schedule.Sort()
	e.links = append(faults.LinkSchedule(nil), cfg.Links...)
	e.links.Sort()

	e.perm = make([]int, n)
	e.permRng = rand.New(rand.NewSource(cfg.Seed ^ permSeedSalt))
	e.usable = func(v int) bool { return !e.faulty[v] }

	e.msgs = cfg.Messages
	if len(e.msgs) > 0 {
		e.msgOut = make([][]int32, len(e.msgs))
		e.msgDepCnt = make([]int32, len(e.msgs))
		e.msgWait = make([]int32, len(e.msgs))
		for i, m := range e.msgs {
			e.msgDepCnt[i] = int32(len(m.Deps))
			for _, dep := range m.Deps {
				e.msgOut[dep] = append(e.msgOut[dep], int32(i))
			}
		}
	}

	e.shards = make([]shard, e.nshards)
	for si := range e.shards {
		s := &e.shards[si]
		s.id = int32(si)
		s.rng = rand.New(rand.NewSource(cfg.Seed ^ int64(si)*shardSeedSalt))
		nodes := 0
		for v := si; v < n; v += e.nshards {
			nodes++
		}
		s.heap = make([]int64, 0, nodes)
		s.routeBuf = make([]int, 0, hopCap+1)
		s.clsBuf = make([]int8, 0, hopCap)
		pend := 0
		for _, m := range e.msgs {
			if m.Src%e.nshards == si {
				pend++
			}
		}
		s.pend = make([]int32, 0, pend)
		s.dmsgs = make([]int32, 0, pend)
	}
	return e, nil
}
