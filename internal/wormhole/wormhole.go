// Package wormhole is a flit-level wormhole-switching simulator with
// virtual channels — the switching layer a real implementation of the
// paper's network would use (store-and-forward switching was
// already dated in 1998). Packets are worms of L flits that stretch
// across a chain of (link, virtual-channel) resources; a blocked head
// leaves its body in place, which is exactly what makes wormhole
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
// ownership there is no livelock to confuse it with).
//
// Every simulation in the repository runs on internal/noc; this
// cycle-scan loop is kept as noc's differential oracle and as the
// oracle leg of hbsim -mode noc.
package wormhole

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// VCPolicy chooses the virtual channel for each hop of a packet's path.
// It is called once per hop in order; state carries per-packet routing
// state (e.g. "crossed the dateline") between hops and starts at zero.
type VCPolicy func(hop int, from, to int, state int) (vc int, newState int)

// SingleVC routes everything on virtual channel 0.
func SingleVC(int, int, int, int) (int, int) { return 0, 0 }

// Config parameterises a wormhole run.
type Config struct {
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
// field; Run rejects invalid configs with the same errors.
func (cfg *Config) Validate() error {
	switch {
	case cfg.Cycles <= 0:
		return fmt.Errorf("wormhole: Cycles %d < 1", cfg.Cycles)
	case cfg.Rate < 0 || cfg.Rate > 1:
		return fmt.Errorf("wormhole: Rate %v outside [0,1]", cfg.Rate)
	case cfg.PacketLen < 1:
		return fmt.Errorf("wormhole: PacketLen %d < 1", cfg.PacketLen)
	case cfg.BufDepth < 1:
		return fmt.Errorf("wormhole: BufDepth %d < 1", cfg.BufDepth)
	case cfg.VCs < 1:
		return fmt.Errorf("wormhole: VCs %d < 1", cfg.VCs)
	case cfg.Policy == nil:
		return fmt.Errorf("wormhole: Policy is required")
	case cfg.Route == nil:
		return fmt.Errorf("wormhole: Route is required")
	case cfg.DeadlockAt < 0:
		return fmt.Errorf("wormhole: DeadlockAt %d < 0", cfg.DeadlockAt)
	}
	return nil
}

// Result reports the run. The JSON shape is covered by a golden-file
// test so hbsim output stays byte-stable across refactors.
type Result struct {
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

type worm struct {
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

// Run simulates cfg on g.
func Run(g graph.Graph, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
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
			panic(fmt.Sprintf("wormhole: route uses non-edge %d-%d", u, w))
		}
		return offsets[u] + k
	}
	totalEdges := offsets[n]
	owner := make([]*worm, totalEdges*cfg.VCs) // (edge, vc) -> owning worm
	chanIdx := func(edge int, vc int8) int { return edge*cfg.VCs + int(vc) }

	rng := rand.New(rand.NewSource(cfg.Seed))
	var res Result
	var worms []*worm
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
				return res, fmt.Errorf("wormhole: bad route %v for %d->%d", path, v, dst)
			}
			w := &worm{
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
						return res, fmt.Errorf("wormhole: policy chose vc %d of %d", vc, cfg.VCs)
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
