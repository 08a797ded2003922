package noc

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file is the engine's test-only differential oracle: a
// flit-level wormhole-switching simulator with virtual channels written
// as one plain cycle-scan loop. Packets are worms of L flits that
// stretch across a chain of (link, virtual-channel) resources; a blocked
// head leaves its body in place, which is exactly what makes wormhole
// networks deadlock-prone and virtual-channel allocation interesting:
//
//   - with a single virtual channel, the wrap-around rings inside the
//     butterfly (and any ring, the test fixture) deadlock under load;
//   - the classical dateline discipline (switch to VC 1 after crossing
//     a fixed "dateline" edge of each ring, with hypercube dimensions
//     ordered before butterfly moves) breaks the cyclic channel
//     dependencies, and the simulator confirms deadlock-free operation
//     of HB(m,n) at saturating load.
//
// The deadlock detector is observational: a cycle in which no flit
// moves while worms are in flight is a deadlock (with FIFO channel
// ownership there is no livelock to confuse it with). diff_test.go
// compares the engine against it; BenchmarkWormholeOracleHB33 against
// BenchmarkNoCObliviousHB33 measures the engine's speedup over it.

// oracleConfig parameterises an oracle run.
type oracleConfig struct {
	Cycles     int
	Rate       float64 // injection probability per node per cycle
	PacketLen  int     // flits per packet (>= 1)
	BufDepth   int     // flit buffer capacity per (link, VC) (>= 1)
	VCs        int     // virtual channels per link (>= 1)
	Seed       int64
	Policy     VCPolicy
	Route      func(u, v int) []int // node path including endpoints
	DeadlockAt int                  // motionless cycles that count as deadlock (default 64)
}

// Validate reports the first configuration error, naming the offending
// field; runOracle rejects invalid configs with the same errors.
func (cfg *oracleConfig) Validate() error {
	switch {
	case cfg.Cycles <= 0:
		return fmt.Errorf("oracle: Cycles %d < 1", cfg.Cycles)
	case cfg.Rate < 0 || cfg.Rate > 1:
		return fmt.Errorf("oracle: Rate %v outside [0,1]", cfg.Rate)
	case cfg.PacketLen < 1:
		return fmt.Errorf("oracle: PacketLen %d < 1", cfg.PacketLen)
	case cfg.BufDepth < 1:
		return fmt.Errorf("oracle: BufDepth %d < 1", cfg.BufDepth)
	case cfg.VCs < 1:
		return fmt.Errorf("oracle: VCs %d < 1", cfg.VCs)
	case cfg.Policy == nil:
		return fmt.Errorf("oracle: Policy is required")
	case cfg.Route == nil:
		return fmt.Errorf("oracle: Route is required")
	case cfg.DeadlockAt < 0:
		return fmt.Errorf("oracle: DeadlockAt %d < 0", cfg.DeadlockAt)
	}
	return nil
}

// oracleResult reports an oracle run. TestOracleResultJSONGolden pins
// its JSON shape.
type oracleResult struct {
	Injected   int     `json:"injected"`
	Delivered  int     `json:"delivered"`
	InFlight   int     `json:"in_flight"`
	FlitEvents int64   `json:"flit_events"` // flit buffer movements (inject/shift/sink)
	AvgLatency float64 `json:"avg_latency"`
	MaxLatency int     `json:"max_latency"`
	Deadlocked bool    `json:"deadlocked"`
	// DeadCycle is the cycle at which deadlock was declared (valid when
	// Deadlocked).
	DeadCycle int `json:"dead_cycle"`
}

type oracleWorm struct {
	path     []int32 // node sequence
	vcs      []int8  // chosen VC per hop
	chans    []int   // directed-edge ids per hop (aligned with vcs)
	occupied []int   // flits currently buffered per hop index
	headHop  int     // furthest hop whose channel is owned (-1 before first acquire)
	tailHop  int     // earliest hop still owned
	toInject int     // flits not yet injected
	sunk     int     // flits delivered
	injected int32   // injection cycle
}

// runOracle simulates cfg on g.
func runOracle(g graph.Graph, cfg oracleConfig) (oracleResult, error) {
	if err := cfg.Validate(); err != nil {
		return oracleResult{}, err
	}
	deadlockAt := cfg.DeadlockAt
	if deadlockAt == 0 {
		deadlockAt = 64
	}
	d := graph.Build(g)
	n := d.Order()

	// Directed edge table: id = offset of (u -> row[k]).
	offsets := make([]int, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + d.Degree(v)
	}
	edgeID := func(u, w int) int {
		row := d.Neighbors(u)
		k := sort.Search(len(row), func(i int) bool { return row[i] >= int32(w) })
		if k == len(row) || row[k] != int32(w) {
			panic(fmt.Sprintf("oracle: route uses non-edge %d-%d", u, w))
		}
		return offsets[u] + k
	}
	totalEdges := offsets[n]
	owner := make([]*oracleWorm, totalEdges*cfg.VCs) // (edge, vc) -> owning worm
	chanIdx := func(edge int, vc int8) int { return edge*cfg.VCs + int(vc) }

	rng := rand.New(rand.NewSource(cfg.Seed))
	var res oracleResult
	var worms []*oracleWorm
	totalLatency := 0
	idleCycles := 0

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// Injection.
		for v := 0; v < n; v++ {
			if rng.Float64() >= cfg.Rate {
				continue
			}
			dst := rng.Intn(n)
			if dst == v {
				continue
			}
			path := cfg.Route(v, dst)
			if len(path) < 2 || path[0] != v || path[len(path)-1] != dst {
				return res, fmt.Errorf("oracle: bad route %v for %d->%d", path, v, dst)
			}
			w := &oracleWorm{
				path:     make([]int32, len(path)),
				vcs:      make([]int8, len(path)-1),
				chans:    make([]int, len(path)-1),
				occupied: make([]int, len(path)-1),
				headHop:  -1,
				toInject: cfg.PacketLen,
				injected: int32(cycle),
			}
			state := 0
			for i, x := range path {
				w.path[i] = int32(x)
				if i+1 < len(path) {
					var vc int
					vc, state = cfg.Policy(i, x, path[i+1], state)
					if vc < 0 || vc >= cfg.VCs {
						return res, fmt.Errorf("oracle: policy chose vc %d of %d", vc, cfg.VCs)
					}
					w.vcs[i] = int8(vc)
					w.chans[i] = edgeID(x, path[i+1])
				}
			}
			res.Injected++
			worms = append(worms, w)
		}

		// Movement: one flit per owned channel per cycle, downstream
		// first so a flit cannot move twice.
		moved := false
		alive := worms[:0]
		for _, w := range worms {
			// Sink from the final owned hop if it is the last path hop.
			last := len(w.chans) - 1
			if w.headHop == last && w.occupied[last] > 0 {
				w.occupied[last]--
				w.sunk++
				res.FlitEvents++
				moved = true
			}
			// Try to advance the head into the next channel.
			if w.headHop < last {
				nextHop := w.headHop + 1
				ci := chanIdx(w.chans[nextHop], w.vcs[nextHop])
				if owner[ci] == nil {
					owner[ci] = w
					w.headHop = nextHop
					moved = true
				}
			}
			// Shift flits forward between adjacent owned channels.
			for h := w.headHop; h > w.tailHop; h-- {
				if w.occupied[h] < cfg.BufDepth && w.occupied[h-1] > 0 {
					w.occupied[h]++
					w.occupied[h-1]--
					res.FlitEvents++
					moved = true
				}
			}
			// Inject a flit into the first owned channel.
			if w.toInject > 0 && w.headHop >= w.tailHop && w.occupied[w.tailHop] < cfg.BufDepth {
				w.occupied[w.tailHop]++
				w.toInject--
				res.FlitEvents++
				moved = true
			}
			// Release drained tail channels once injection has finished.
			for w.toInject == 0 && w.tailHop < w.headHop && w.occupied[w.tailHop] == 0 {
				owner[chanIdx(w.chans[w.tailHop], w.vcs[w.tailHop])] = nil
				w.tailHop++
			}
			// Completion.
			if w.sunk == cfg.PacketLen {
				owner[chanIdx(w.chans[last], w.vcs[last])] = nil
				res.Delivered++
				lat := cycle + 1 - int(w.injected)
				totalLatency += lat
				if lat > res.MaxLatency {
					res.MaxLatency = lat
				}
				continue
			}
			alive = append(alive, w)
		}
		worms = alive

		if len(worms) > 0 && !moved {
			idleCycles++
			if idleCycles >= deadlockAt {
				res.Deadlocked = true
				res.DeadCycle = cycle
				break
			}
		} else {
			idleCycles = 0
		}
	}
	res.InFlight = len(worms)
	if res.Delivered > 0 {
		res.AvgLatency = float64(totalLatency) / float64(res.Delivered)
	}
	return res, nil
}

// ringDateline returns a VC policy for a unidirectional ring of n
// nodes routed clockwise: virtual channel 0 before the wrap-around edge
// (n-1 -> 0), virtual channel 1 from the wrap onward. Two VCs suffice
// to make the ring's channel dependency graph acyclic — the textbook
// dateline argument the tests demonstrate.
func ringDateline(n int) VCPolicy {
	return func(hop, from, to, state int) (int, int) {
		if from == n-1 && to == 0 {
			state = 1
		}
		return state, state
	}
}

func TestOracleConfigValidation(t *testing.T) {
	ring := graph.Ring{N: 6}
	route := cwRingRoute(6)
	good := oracleConfig{Cycles: 10, Rate: 0.1, PacketLen: 2, BufDepth: 1, VCs: 1, Policy: SingleVC, Route: route}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// Each mutation breaks exactly one field; the error must name it.
	bad := []struct {
		field string
		mut   func(*oracleConfig)
	}{
		{"Cycles", func(c *oracleConfig) { c.Cycles = 0 }},
		{"Rate", func(c *oracleConfig) { c.Rate = -1 }},
		{"Rate", func(c *oracleConfig) { c.Rate = 1.5 }},
		{"PacketLen", func(c *oracleConfig) { c.PacketLen = 0 }},
		{"BufDepth", func(c *oracleConfig) { c.BufDepth = 0 }},
		{"VCs", func(c *oracleConfig) { c.VCs = 0 }},
		{"Policy", func(c *oracleConfig) { c.Policy = nil }},
		{"Route", func(c *oracleConfig) { c.Route = nil }},
		{"DeadlockAt", func(c *oracleConfig) { c.DeadlockAt = -1 }},
	}
	for _, tc := range bad {
		cfg := good
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s mutation accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s mutation: error %q does not name the field", tc.field, err)
		}
		if _, rerr := runOracle(ring, cfg); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s mutation: runOracle error %v differs from Validate error %v", tc.field, rerr, err)
		}
	}
	// A policy returning an out-of-range VC must be rejected.
	badVC := func(int, int, int, int) (int, int) { return 3, 0 }
	if _, err := runOracle(ring, oracleConfig{Cycles: 50, Rate: 1, PacketLen: 2, BufDepth: 1, VCs: 2,
		Policy: badVC, Route: route, Seed: 1}); err == nil {
		t.Error("accepted out-of-range VC")
	}
}

// TestOracleLightLoadDelivers: with low load and long buffers nothing blocks.
func TestOracleLightLoadDelivers(t *testing.T) {
	ring := graph.Ring{N: 8}
	res, err := runOracle(ring, oracleConfig{
		Cycles: 2000, Rate: 0.01, PacketLen: 3, BufDepth: 4, VCs: 1,
		Policy: SingleVC, Route: cwRingRoute(8), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("light load deadlocked")
	}
	if res.Delivered == 0 || res.Delivered+res.InFlight != res.Injected {
		t.Fatalf("accounting: %+v", res)
	}
	// A worm of 3 flits over >= 1 hop takes at least PacketLen cycles.
	if res.MaxLatency < 3 {
		t.Fatalf("max latency %d too small", res.MaxLatency)
	}
}

// TestOracleRingSingleVCDeadlocks is the classical result: wormhole worms on
// a single-VC ring under saturating load form a cyclic channel wait and
// the network wedges.
func TestOracleRingSingleVCDeadlocks(t *testing.T) {
	ring := graph.Ring{N: 8}
	res, err := runOracle(ring, oracleConfig{
		Cycles: 4000, Rate: 0.5, PacketLen: 4, BufDepth: 1, VCs: 1,
		Policy: SingleVC, Route: cwRingRoute(8), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("single-VC saturated ring did not deadlock: %+v", res)
	}
}

// TestOracleRingDatelineAvoidsDeadlock: the same load with two VCs and the
// dateline discipline runs to completion.
func TestOracleRingDatelineAvoidsDeadlock(t *testing.T) {
	ring := graph.Ring{N: 8}
	res, err := runOracle(ring, oracleConfig{
		Cycles: 4000, Rate: 0.5, PacketLen: 4, BufDepth: 1, VCs: 2,
		Policy: ringDateline(8), Route: cwRingRoute(8), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("dateline ring deadlocked at cycle %d", res.DeadCycle)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestOracleHBDatelineHeavyLoad: HB(2,3) at saturating injection with the
// two-phase route and the HB dateline policy stays deadlock-free.
func TestOracleHBDatelineHeavyLoad(t *testing.T) {
	hb := core.MustNew(2, 3)
	res, err := runOracle(hb, oracleConfig{
		Cycles: 3000, Rate: 0.3, PacketLen: 4, BufDepth: 1, VCs: 2,
		Policy: HBDateline(hb), Route: hb.Route, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("HB dateline deadlocked at cycle %d", res.DeadCycle)
	}
	if res.Delivered == 0 || res.Delivered+res.InFlight != res.Injected {
		t.Fatalf("accounting: %+v", res)
	}
}

// TestOracleDeterminism: same seed, same outcome.
func TestOracleDeterminism(t *testing.T) {
	hb := core.MustNew(1, 3)
	cfg := oracleConfig{
		Cycles: 500, Rate: 0.1, PacketLen: 3, BufDepth: 2, VCs: 2,
		Policy: HBDateline(hb), Route: hb.Route, Seed: 7,
	}
	a, err := runOracle(hb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOracle(hb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestOracleHBSingleVCDeadlocks: without virtual channels the butterfly
// wrap-around rings inside HB(2,3) wedge under the same load that the
// dateline policy survives — the pair of results that motivates
// HBDateline.
func TestOracleHBSingleVCDeadlocks(t *testing.T) {
	hb := core.MustNew(2, 3)
	res, err := runOracle(hb, oracleConfig{
		Cycles: 3000, Rate: 0.3, PacketLen: 4, BufDepth: 1, VCs: 1,
		Policy: SingleVC, Route: hb.Route, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("single-VC HB did not deadlock: %+v", res)
	}
}

// TestOracleResultJSONGolden pins the JSON encoding of oracleResult —
// field names and values for one deterministic run — so a change to
// the oracle's semantics cannot pass unnoticed. Regenerate with:
// go test ./internal/noc -run OracleResultJSONGolden -update
func TestOracleResultJSONGolden(t *testing.T) {
	hb := core.MustNew(1, 3)
	res, err := runOracle(hb, oracleConfig{
		Cycles: 300, Rate: 0.05, PacketLen: 3, BufDepth: 2, VCs: 2,
		Policy: HBDateline(hb), Route: hb.Route, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "oracle_result_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("Result JSON drifted from golden file:\ngot:\n%s\nwant:\n%s\n(run with -update if intentional)", got, want)
	}

	// The encoding must round-trip losslessly.
	var back oracleResult
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != res {
		t.Errorf("round trip changed the result: %+v vs %+v", back, res)
	}
}
