// Package faultroute implements routing in HB(m,n) in the presence of
// faulty nodes (Remark 10): because Theorem 5 guarantees m+4 internally
// vertex-disjoint paths between any two nodes, any set of at most m+3
// node faults (excluding the endpoints) leaves at least one of them
// intact, so delivery can always succeed while the network is within its
// fault-tolerance bound — the "maximal fault tolerance" the paper is
// named for.
//
// The router computes on a *core.HyperButterfly by label arithmetic.
// Fault state is sparse (proportional to the fault count, not the
// order), and the only strategies that touch order-sized state — the
// BFS last resort and the exhaustive Connected check — are gated behind
// ExhaustiveMaxOrder, so a router over HB(10,10) stays within the
// Theorem 5 ladder and never allocates ten-million-entry masks.
package faultroute

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// Router routes around a set of faulty nodes. The set is mutable:
// Fail and Recover update only the fault map and two counters, in
// O(1); a cached route is validated when it is hit instead, so a
// long-lived router (the simulator's chaos rerouter) never rebuilds
// from scratch and a fault-set change never scans the cache. All
// methods are safe for concurrent use; reads of the exported Stats
// field are only meaningful while no Route call is in flight.
type Router struct {
	hb *core.HyperButterfly

	mu     sync.Mutex
	faulty map[core.Node]bool // sparse: only faulty nodes are present
	epoch  uint64             // bumps on every effective Fail/Recover
	// recoveries counts effective Recover calls; a cached greedy detour
	// older than the latest recovery may have a shorter alternative now.
	recoveries uint64
	last       string // strategy of the most recent successful Route
	cache      map[pairKey]cachedRoute

	// Stats counts which strategy satisfied each Route call; useful for
	// the E-R10 experiment. Cache hits re-count the strategy that
	// originally produced the path.
	Stats struct {
		Optimal  int // the fault-free shortest path worked unmodified
		Greedy   int // greedy detour routing succeeded
		Disjoint int // fell back to scanning the m+4 disjoint paths
		BFS      int // last resort: global search (beyond m+3 faults)
	}
}

type pairKey struct{ u, v core.Node }

type cachedRoute struct {
	path     []core.Node
	strategy string
	// The router's counters at insert time, checked on hit by fresh.
	epoch, recoveries uint64
}

// routerCacheMax bounds the per-router route cache; beyond it the whole
// cache is reset (entries are cheap to recompute, the bound only stops
// unbounded growth under adversarial query streams).
const routerCacheMax = 4096

// ExhaustiveMaxOrder caps the instance order up to which the router
// will fall back to order-sized computations (the BFS strategy beyond
// the Theorem 5 guarantee, and the exhaustive Connected check). Above
// it those paths answer from the Corollary 1 guarantee instead.
const ExhaustiveMaxOrder = 1 << 21

// New returns a Router on hb with the given faulty nodes.
func New(hb *core.HyperButterfly, faults []core.Node) (*Router, error) {
	r := &Router{hb: hb, faulty: make(map[core.Node]bool, len(faults)), cache: make(map[pairKey]cachedRoute)}
	for _, f := range faults {
		if !hb.ValidNode(f) {
			return nil, fmt.Errorf("faultroute: fault %d out of range [0,%d)", f, hb.Order())
		}
		r.faulty[f] = true
	}
	return r, nil
}

// Fail marks v faulty in O(1). Cached routes through v are not touched
// here: Route validates every hit against the current fault set.
// Returns whether the set changed.
func (r *Router) Fail(v core.Node) (bool, error) {
	if !r.hb.ValidNode(v) {
		return false, fmt.Errorf("faultroute: fault %d out of range [0,%d)", v, r.hb.Order())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.faulty[v] {
		return false, nil
	}
	r.faulty[v] = true
	r.epoch++
	return true, nil
}

// Recover clears v in O(1). Cached routes still avoid the remaining
// faults, but detours may now have shorter alternatives; Route
// recomputes any detour inserted before the latest recovery. Returns
// whether the set changed.
func (r *Router) Recover(v core.Node) (bool, error) {
	if !r.hb.ValidNode(v) {
		return false, fmt.Errorf("faultroute: fault %d out of range [0,%d)", v, r.hb.Order())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.faulty[v] {
		return false, nil
	}
	delete(r.faulty, v)
	r.epoch++
	r.recoveries++
	return true, nil
}

// SetFaults moves the router to exactly the given fault set by diffing
// against the current one — the incremental path a caching server uses
// when consecutive requests carry similar fault sets. The diff costs
// O(|old| + |new|) regardless of the instance order.
func (r *Router) SetFaults(faults []core.Node) error {
	want := make(map[core.Node]bool, len(faults))
	for _, f := range faults {
		if !r.hb.ValidNode(f) {
			return fmt.Errorf("faultroute: fault %d out of range [0,%d)", f, r.hb.Order())
		}
		want[f] = true
	}
	r.mu.Lock()
	have := make([]core.Node, 0, len(r.faulty))
	for v := range r.faulty {
		have = append(have, v)
	}
	r.mu.Unlock()
	for _, v := range have {
		if !want[v] {
			if _, err := r.Recover(v); err != nil {
				return err
			}
		}
	}
	for v := range want {
		if _, err := r.Fail(v); err != nil {
			return err
		}
	}
	return nil
}

// FaultList returns the sorted faulty nodes.
func (r *Router) FaultList() []core.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.Node, 0, len(r.faulty))
	for v := range r.faulty {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Route is the one-shot form of Router.Route for callers that bring a
// fresh fault set per query (the conformance harness, the hbd
// /faultroute endpoint): build a router, route once, report the
// strategy that delivered.
func Route(hb *core.HyperButterfly, faults []core.Node, u, v core.Node) ([]core.Node, string, error) {
	r, err := New(hb, faults)
	if err != nil {
		return nil, "", err
	}
	path, err := r.Route(u, v)
	if err != nil {
		return nil, "", err
	}
	return path, r.LastStrategy(), nil
}

// LastStrategy names the strategy that satisfied the most recent
// successful Route call ("optimal", "greedy", "disjoint", "bfs", or ""
// before any call).
func (r *Router) LastStrategy() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// FaultCount returns the number of distinct faulty nodes.
func (r *Router) FaultCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.faulty)
}

// Faulty reports whether v is faulty.
func (r *Router) Faulty(v core.Node) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faulty[v]
}

// WithinGuarantee reports whether the fault count is at most m+3, the
// bound under which Theorem 5 guarantees delivery between any two
// non-faulty nodes.
func (r *Router) WithinGuarantee() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.faulty) <= r.hb.M()+3
}

// pathClear reports whether a path avoids every fault (endpoints
// included).
func (r *Router) pathClear(path []core.Node) bool {
	for _, v := range path {
		if r.faulty[v] {
			return false
		}
	}
	return true
}

// Route returns a fault-free path from u to v, trying strategies in
// increasing order of cost:
//
//  1. the optimal two-phase route of Section 3, if it happens to avoid
//     all faults;
//  2. greedy adaptive routing (always step to a non-faulty neighbor
//     closest to v, with a bounded misroute allowance);
//  3. the first fault-free path among the m+4 disjoint paths of
//     Theorem 5 — guaranteed to exist while faults <= m+3;
//  4. plain BFS avoiding faults, for operation beyond the guarantee —
//     on instances up to ExhaustiveMaxOrder only (an implicit
//     HB(10,10) router skips it rather than allocate an order-sized
//     visited set).
//
// It fails only if u or v is faulty or the faults actually disconnect
// the pair (possible only with more than m+3 faults).
//
// Successful non-trivial routes are cached per (u,v) and validated on
// hit (see fresh), so a hit answers exactly what a router freshly built
// with the current fault set would, and repeat queries against a
// slowly-changing fault set are map lookups plus one pass over the
// path.
func (r *Router) Route(u, v core.Node) ([]core.Node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.faulty[u] || r.faulty[v] {
		return nil, fmt.Errorf("faultroute: endpoint faulty (u=%v, v=%v)", r.faulty[u], r.faulty[v])
	}
	if u == v {
		r.last = "optimal"
		return []core.Node{u}, nil
	}
	key := pairKey{u, v}
	c, cached := r.cache[key]
	if cached && r.fresh(c) {
		r.countStrategy(c.strategy)
		r.last = c.strategy
		// Callers own their result; hand out a copy so the cached path
		// cannot be mutated underneath later hits.
		return append([]core.Node(nil), c.path...), nil
	}
	path, strategy := r.routeLocked(u, v)
	if path == nil {
		return nil, fmt.Errorf("faultroute: %d faults disconnect %d from %d", len(r.faulty), u, v)
	}
	r.countStrategy(strategy)
	r.last = strategy
	if !cached && len(r.cache) >= routerCacheMax {
		r.cache = make(map[pairKey]cachedRoute)
	}
	r.cache[key] = cachedRoute{path: path, strategy: strategy, epoch: r.epoch, recoveries: r.recoveries}
	return path, nil
}

// fresh reports whether a cached route is still the one the strategy
// ladder would return now. The caller holds r.mu.
//
//   - optimal: the ladder's first rung is a fixed path, so it stands
//     while it avoids every current fault.
//   - greedy: with no Recover since insertion the fault set only grew,
//     so the optimal route is still blocked, and a greedy walk that
//     avoids the new faults makes the same choices; a recovery may
//     unblock the optimal route or a shorter walk.
//   - disjoint, bfs: greedy failed at insertion, but any later fault
//     change can make it succeed (a new fault steers the walk away from
//     the dead end it hit), so these stand only while the fault set is
//     unchanged.
func (r *Router) fresh(c cachedRoute) bool {
	switch c.strategy {
	case "optimal":
		return r.pathClear(c.path)
	case "greedy":
		return c.recoveries == r.recoveries && r.pathClear(c.path)
	default:
		return c.epoch == r.epoch
	}
}

// routeLocked runs the strategy ladder; the caller holds r.mu.
func (r *Router) routeLocked(u, v core.Node) ([]core.Node, string) {
	if p := r.hb.Route(u, v); r.pathClear(p) {
		return p, "optimal"
	}
	if p, ok := r.greedy(u, v); ok {
		return p, "greedy"
	}
	if paths, err := r.hb.DisjointPaths(u, v); err == nil {
		for _, p := range paths {
			if r.pathClear(p) {
				return p, "disjoint"
			}
		}
	}
	if r.hb.Order() <= ExhaustiveMaxOrder {
		if p := graph.BFSPath(r.hb, u, v, r.faultMask()); p != nil {
			return p, "bfs"
		}
	}
	return nil, ""
}

// faultMask expands the sparse fault set into the order-sized mask the
// graph algorithms take; callers gate on ExhaustiveMaxOrder first.
func (r *Router) faultMask() []bool {
	mask := make([]bool, r.hb.Order())
	for v := range r.faulty {
		mask[v] = true
	}
	return mask
}

func (r *Router) countStrategy(strategy string) {
	switch strategy {
	case "optimal":
		r.Stats.Optimal++
	case "greedy":
		r.Stats.Greedy++
	case "disjoint":
		r.Stats.Disjoint++
	case "bfs":
		r.Stats.BFS++
	}
}

// greedyBudget bounds the number of non-improving (misrouting) steps the
// greedy strategy may take before giving up.
const greedyBudget = 4

// greedy performs adaptive hop-by-hop routing: prefer the non-faulty,
// unvisited neighbor closest to v; allow a bounded number of
// non-improving steps. Cheap, local, and usually sufficient for small
// fault counts — but not guaranteed, hence the fallbacks in Route.
func (r *Router) greedy(u, v core.Node) ([]core.Node, bool) {
	visited := map[core.Node]bool{u: true}
	path := []core.Node{u}
	cur := u
	misroutes := 0
	var buf []int
	for cur != v {
		buf = r.hb.AppendNeighbors(cur, buf[:0])
		best, bestDist := -1, -1
		for _, w := range buf {
			if r.faulty[w] || visited[w] {
				continue
			}
			d := r.hb.Distance(w, v)
			if best == -1 || d < bestDist {
				best, bestDist = w, d
			}
		}
		if best == -1 {
			return nil, false // dead end
		}
		if bestDist >= r.hb.Distance(cur, v) {
			misroutes++
			if misroutes > greedyBudget {
				return nil, false
			}
		}
		visited[best] = true
		path = append(path, best)
		cur = best
	}
	return path, true
}

// Connected reports whether the fault-free part of the network is still
// connected. Up to ExhaustiveMaxOrder the answer is exact (a full
// sweep); beyond it the sweep is infeasible and Connected answers from
// Corollary 1 — true while the fault count is within the m+3 guarantee,
// conservatively false otherwise (it cannot certify connectivity it did
// not check).
func (r *Router) Connected() bool {
	r.mu.Lock()
	if r.hb.Order() > ExhaustiveMaxOrder {
		ok := len(r.faulty) <= r.hb.M()+3
		r.mu.Unlock()
		return ok
	}
	mask := r.faultMask()
	r.mu.Unlock()
	return graph.IsConnected(r.hb, mask)
}
