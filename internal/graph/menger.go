package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the Menger engine: the flat-CSR flow arena behind every
// connectivity query (the C1/T5 ground truth, edge connectivity,
// disjoint-path extraction, node-to-set fans) and the worker-pool pair
// fan-out that computes global connectivity. It is the flow-side
// counterpart of the BFS kernel in kernel.go — a FlowScratch is built
// once per graph (one CSR over the node-split or edge-doubled network,
// reverse-arc indices precomputed), reset in place per (s,t) pair with
// one O(arcs) copy of the capacity template, and run through an
// iterative (non-recursive) Dinic augmenter whose per-pair steady state
// performs zero allocations.
//
// The paper's Theorem 5 claims m+4 node-disjoint paths between any two
// hyper-butterfly nodes and Corollary 1 concludes vertex connectivity
// m+4; these routines are the independent ground truth those claims are
// tested against. The pre-engine per-pair max-flow (network rebuilt per
// call, recursive augmentation) lives in the package's test code as the
// *Reference differential oracle and benchmark baseline (see
// BENCH_conn.json, E-T5/E-EC).

// terminalCap is the effectively-infinite split-arc capacity of the two
// terminals of a vertex-connectivity query; 127 is far above any degree
// used in this repository.
const terminalCap = int8(127)

// FlowScratch is the reusable state of one in-flight unit-capacity
// max-flow computation on a fixed graph: the flow network in flat CSR
// form (arc heads, targets, reverse indices, residual capacities), the
// Dinic level/iterator arrays, and the path-decomposition scratch. It
// comes in two flavours sharing all machinery:
//
//   - NewFlowScratch builds the node-split digraph of vertex
//     connectivity (v becomes v_in -> v_out of capacity 1, every
//     undirected edge {u,w} becomes u_out -> w_in and w_out -> u_in);
//   - NewEdgeFlowScratch builds the directed doubling of edge
//     connectivity (one capacity-1 arc each way per undirected edge).
//
// A FlowScratch is not safe for concurrent use; the parallel drivers
// keep one per worker, exactly like the Scratch pools of the BFS
// kernel.
type FlowScratch struct {
	n         int  // order of the underlying graph
	nodeSplit bool // node-split (vertex) vs edge-doubled (edge) network

	head     []int32 // CSR arc offsets per flow node, len numNodes+1
	to       []int32 // arc targets
	rev      []int32 // index of each arc's reverse
	cap      []int8  // residual capacities, reset per pair
	cap0     []int8  // capacity template (terminals patched per pair)
	splitArc []int32 // node-split only: arc index of v_in -> v_out

	level []int32
	iter  []int32
	queue []int32
	path  []int32 // arc trail of the in-flight DFS augmentation

	arcUsed []bool  // DisjointPaths decomposition: consumed flow arcs
	pathPos []int32 // original vertex -> index in the path being walked
}

// splitIn and splitOut map an original vertex to its node-split halves.
func splitIn(v int) int  { return 2 * v }
func splitOut(v int) int { return 2*v + 1 }

// NewFlowScratch builds the node-split flow arena of d for vertex
// connectivity queries. Multi-edges and self-loops are ignored.
func NewFlowScratch(d *Dense) *FlowScratch {
	n := d.Order()
	fs := &FlowScratch{n: n, nodeSplit: true}
	nn := 2 * n
	deg := make([]int32, nn)
	for v := 0; v < n; v++ {
		sd := int32(simpleDegree(d, v))
		deg[splitIn(v)] = 1 + sd  // split arc + residuals of incoming edge arcs
		deg[splitOut(v)] = sd + 1 // edge arcs + split residual
	}
	fs.buildCSR(nn, deg)
	fs.splitArc = make([]int32, n)
	fill := deg
	for i := range fill {
		fill[i] = 0
	}
	for v := 0; v < n; v++ {
		fs.splitArc[v] = fs.addArc(fill, int32(splitIn(v)), int32(splitOut(v)), 1)
		prev := int32(-1)
		for _, w := range d.Neighbors(v) {
			if w == prev || int(w) == v {
				prev = w
				continue
			}
			prev = w
			fs.addArc(fill, int32(splitOut(v)), int32(splitIn(int(w))), 1)
		}
	}
	return fs
}

// NewEdgeFlowScratch builds the edge-doubled flow arena of d for edge
// connectivity queries (multi-edges and self-loops ignored).
func NewEdgeFlowScratch(d *Dense) *FlowScratch {
	n := d.Order()
	fs := &FlowScratch{n: n, nodeSplit: false}
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = 2 * int32(simpleDegree(d, v))
	}
	fs.buildCSR(n, deg)
	fill := deg
	for i := range fill {
		fill[i] = 0
	}
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for _, w := range d.Neighbors(v) {
			if w == prev || int(w) == v || int(w) < v {
				prev = w
				continue
			}
			prev = w
			// One capacity-1 arc each way, as two independent arc pairs
			// so either direction can carry flow.
			fs.addArc(fill, int32(v), w, 1)
			fs.addArc(fill, w, int32(v), 1)
		}
	}
	return fs
}

// buildCSR sizes the arena for numNodes flow nodes with the given
// per-node arc counts (forward plus residual slots).
func (fs *FlowScratch) buildCSR(numNodes int, deg []int32) {
	fs.head = make([]int32, numNodes+1)
	for i := 0; i < numNodes; i++ {
		fs.head[i+1] = fs.head[i] + deg[i]
	}
	arcs := int(fs.head[numNodes])
	fs.to = make([]int32, arcs)
	fs.rev = make([]int32, arcs)
	fs.cap0 = make([]int8, arcs)
	fs.cap = make([]int8, arcs)
	fs.level = make([]int32, numNodes)
	fs.iter = make([]int32, numNodes)
	fs.queue = make([]int32, 0, numNodes)
	fs.path = make([]int32, 0, numNodes)
	fs.arcUsed = make([]bool, arcs)
	fs.pathPos = make([]int32, fs.n)
}

// addArc places a forward arc from->to of capacity c and its zero-
// capacity reverse into the pre-sized CSR rows, returning the forward
// arc index.
func (fs *FlowScratch) addArc(fill []int32, from, to int32, c int8) int32 {
	a := fs.head[from] + fill[from]
	fill[from]++
	b := fs.head[to] + fill[to]
	fill[to]++
	fs.to[a], fs.cap0[a], fs.rev[a] = to, c, b
	fs.to[b], fs.cap0[b], fs.rev[b] = from, 0, a
	return a
}

// reset restores the capacity template in place (one O(arcs) copy) and,
// on node-split arenas, lifts the terminals' split capacities.
func (fs *FlowScratch) reset(s, t int) {
	copy(fs.cap, fs.cap0)
	if fs.nodeSplit {
		fs.cap[fs.splitArc[s]] = terminalCap
		fs.cap[fs.splitArc[t]] = terminalCap
	}
}

// bfsLevel builds the Dinic level graph from s; reports whether t is
// reachable in the residual network.
func (fs *FlowScratch) bfsLevel(s, t int32) bool {
	level := fs.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	q := append(fs.queue[:0], s)
	for h := 0; h < len(q); h++ {
		v := q[h]
		lv := level[v] + 1
		for a := fs.head[v]; a < fs.head[v+1]; a++ {
			if w := fs.to[a]; fs.cap[a] > 0 && level[w] == -1 {
				level[w] = lv
				q = append(q, w)
			}
		}
	}
	fs.queue = q[:0]
	return level[t] != -1
}

// augment pushes one unit of flow along an admissible s-t path of the
// current level graph, walking iteratively with an explicit arc trail
// (no recursion, no allocation). Dead-end vertices are pruned from the
// phase by resetting their level.
func (fs *FlowScratch) augment(s, t int32) bool {
	path := fs.path[:0]
	v := s
	for {
		if v == t {
			for _, a := range path {
				fs.cap[a]--
				fs.cap[fs.rev[a]]++
			}
			fs.path = path[:0]
			return true
		}
		advance := int32(-1)
		for fs.iter[v] < fs.head[v+1] {
			a := fs.iter[v]
			if fs.cap[a] > 0 && fs.level[fs.to[a]] == fs.level[v]+1 {
				advance = a
				break
			}
			fs.iter[v]++
		}
		if advance >= 0 {
			path = append(path, advance)
			v = fs.to[advance]
			continue
		}
		fs.level[v] = -1 // dead end this phase
		if len(path) == 0 {
			fs.path = path
			return false
		}
		last := path[len(path)-1]
		path = path[:len(path)-1]
		v = fs.to[fs.rev[last]]
		fs.iter[v]++
	}
}

// maxFlow runs Dinic from s to t on the reset arena. The flow stops as
// soon as it reaches limit (negative = unbounded) or, when bound is
// non-nil, the bound's current value — the shared early-exit of the
// parallel drivers: a pair whose flow reaches the running minimum
// cannot lower it, so finishing the computation proves nothing.
func (fs *FlowScratch) maxFlow(s, t int32, limit int, bound *atomic.Int32) int {
	flow := 0
	reached := func() bool {
		if limit >= 0 && flow >= limit {
			return true
		}
		return bound != nil && flow >= int(bound.Load())
	}
	if reached() {
		return flow
	}
	for fs.bfsLevel(s, t) {
		copy(fs.iter, fs.head[:len(fs.iter)])
		for fs.augment(s, t) {
			flow++
			if reached() {
				return flow
			}
		}
	}
	return flow
}

// checkPair validates a connectivity query pair.
func (fs *FlowScratch) checkPair(s, t int) {
	if s == t {
		panic(fmt.Sprintf("graph: connectivity of vertex %d with itself", s))
	}
	if s < 0 || s >= fs.n || t < 0 || t >= fs.n {
		panic(fmt.Sprintf("graph: connectivity pair (%d,%d) out of range [0,%d)", s, t, fs.n))
	}
}

// LocalConnectivity returns the maximum number of internally
// vertex-disjoint s-t paths, stopping early at limit (negative =
// unbounded): the returned value is min(limit, true local
// connectivity). The arena must have been built by NewFlowScratch.
// Zero allocations in the steady state.
func (fs *FlowScratch) LocalConnectivity(s, t, limit int) int {
	if !fs.nodeSplit {
		panic("graph: LocalConnectivity on an edge-connectivity FlowScratch")
	}
	fs.checkPair(s, t)
	fs.reset(s, t)
	return fs.maxFlow(int32(splitOut(s)), int32(splitIn(t)), limit, nil)
}

// LocalEdgeConnectivity returns the maximum number of edge-disjoint s-t
// paths, stopping early at limit (negative = unbounded). The arena must
// have been built by NewEdgeFlowScratch. Zero allocations in the steady
// state.
func (fs *FlowScratch) LocalEdgeConnectivity(s, t, limit int) int {
	if fs.nodeSplit {
		panic("graph: LocalEdgeConnectivity on a vertex-connectivity FlowScratch")
	}
	fs.checkPair(s, t)
	fs.reset(s, t)
	return fs.maxFlow(int32(s), int32(t), limit, nil)
}

// localBound is the parallel drivers' bounded query: like
// LocalConnectivity but capped by the shared best bound.
func (fs *FlowScratch) localBound(s, t int, bound *atomic.Int32) int {
	fs.reset(s, t)
	if fs.nodeSplit {
		return fs.maxFlow(int32(splitOut(s)), int32(splitIn(t)), -1, bound)
	}
	return fs.maxFlow(int32(s), int32(t), -1, bound)
}

// DisjointPaths extracts a maximum (or limit-capped) set of pairwise
// internally vertex-disjoint s-t paths from a unit max-flow on the
// arena, each as a vertex sequence including the endpoints. Unit flows
// found by augmentation may contain cycles; the walk cuts them out in
// place using the flat pathPos index (no per-call maps). A failed
// decomposition returns an error instead of panicking.
func (fs *FlowScratch) DisjointPaths(s, t, limit int) ([][]int, error) {
	if !fs.nodeSplit {
		return nil, fmt.Errorf("graph: DisjointPaths on an edge-connectivity FlowScratch")
	}
	if s == t {
		return [][]int{{s}}, nil
	}
	fs.checkPair(s, t)
	fs.reset(s, t)
	flow := fs.maxFlow(int32(splitOut(s)), int32(splitIn(t)), limit, nil)

	for i := range fs.arcUsed {
		fs.arcUsed[i] = false
	}
	for i := range fs.pathPos {
		fs.pathPos[i] = -1
	}
	// A forward arc (cap0 > 0) carries flow iff its reverse gained
	// residual capacity; consume each such arc at most once.
	next := func(v int32) int32 {
		for a := fs.head[v]; a < fs.head[v+1]; a++ {
			if fs.arcUsed[a] || fs.cap0[a] == 0 || fs.cap[fs.rev[a]] == 0 {
				continue
			}
			fs.arcUsed[a] = true
			return fs.to[a]
		}
		return -1
	}
	sink := int32(splitIn(t))
	paths := make([][]int, 0, flow)
	for k := 0; k < flow; k++ {
		path := append(make([]int, 0, 8), s)
		fs.pathPos[s] = 0
		v := int32(splitOut(s))
		for {
			w := next(v)
			if w == -1 {
				return nil, fmt.Errorf("graph: flow decomposition lost path %d of %d from %d to %d", k+1, flow, s, t)
			}
			if w == sink {
				path = append(path, t)
				break
			}
			orig := int(w) / 2
			if i := fs.pathPos[orig]; i >= 0 {
				// Revisited vertex: cut the loop out (its arcs stay
				// consumed, harmlessly).
				for _, x := range path[i+1:] {
					fs.pathPos[x] = -1
				}
				path = path[:i+1]
			} else {
				fs.pathPos[orig] = int32(len(path))
				path = append(path, orig)
			}
			v = int32(splitOut(orig))
		}
		for _, x := range path[:len(path)-1] {
			fs.pathPos[x] = -1
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// simpleDegree counts the distinct non-self neighbors of v (rows are
// sorted, so duplicates are adjacent).
func simpleDegree(d *Dense, v int) int {
	prev := int32(-1)
	c := 0
	for _, w := range d.Neighbors(v) {
		if w == prev || int(w) == v {
			prev = w
			continue
		}
		prev = w
		c++
	}
	return c
}

// minSimpleDegree returns the minimum simpleDegree over all vertices —
// the degree upper bound that seeds every global connectivity
// computation (kappa <= delta, and for the complete graphs that have no
// non-adjacent pair, kappa = delta = n-1 exactly).
func minSimpleDegree(d *Dense) int {
	n := d.Order()
	min := n - 1
	for v := 0; v < n; v++ {
		if sd := simpleDegree(d, v); sd < min {
			min = sd
		}
	}
	return min
}

// connPair is one (seed, target) task of a parallel connectivity sweep.
type connPair struct{ s, t int32 }

// connChunk is the number of pairs a worker claims per atomic bump:
// flows are microsecond-scale, so a small chunk amortises the atomic
// while keeping the tail stealable.
const connChunk = 8

// storeMin lowers best to c if c is smaller (lock-free CAS loop).
func storeMin(best *atomic.Int32, c int32) {
	for {
		cur := best.Load()
		if c >= cur || best.CompareAndSwap(cur, c) {
			return
		}
	}
}

// runConnPairs is the shared worker-pool pair fan-out: workers claim
// chunks of pairs off an atomic counter, each owns one arena built by
// newScratch, and all flows share the atomic best bound — every
// in-flight flow terminates as soon as it reaches the current minimum,
// and whole seeds beyond the running best are skipped (the seed
// argument needs only best+1 seeds). Modeled on AllSourcesBits.
func runConnPairs(pairs []connPair, best *atomic.Int32, workers int, skipSeedsPastBest bool, newScratch func() *FlowScratch) {
	if len(pairs) == 0 {
		return
	}
	w := effectiveWorkers(workers, (len(pairs)+connChunk-1)/connChunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			fs := newScratch()
			for {
				base := int(next.Add(connChunk)) - connChunk
				if base >= len(pairs) {
					return
				}
				end := base + connChunk
				if end > len(pairs) {
					end = len(pairs)
				}
				for _, p := range pairs[base:end] {
					if skipSeedsPastBest && p.s > best.Load() {
						continue
					}
					if c := fs.localBound(int(p.s), int(p.t), best); c < int(best.Load()) {
						storeMin(best, int32(c))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// DisjointPaths returns a maximum set of pairwise internally
// vertex-disjoint s-t paths in d, each as a vertex sequence including the
// endpoints. If limit >= 0, at most limit paths are returned. An error
// (never seen on well-formed inputs) reports a failed flow
// decomposition. Callers extracting paths for many pairs of one graph
// should hold a NewFlowScratch and call its DisjointPaths method.
func DisjointPaths(d *Dense, s, t, limit int) ([][]int, error) {
	if s == t {
		return [][]int{{s}}, nil
	}
	return NewFlowScratch(d).DisjointPaths(s, t, limit)
}

// Connectivity computes the vertex connectivity of d exactly with the
// classic seed argument: a minimum cut C has |C| = kappa vertices, so
// among any kappa+1 seed vertices at least one lies outside C, and the
// minimum local connectivity from that seed to its non-neighbours is
// |C|. The minimum simple degree caps kappa from the start, so the pair
// list covers seeds 0..delta; the pairs fan out across `workers`
// goroutines (GOMAXPROCS when workers <= 0), and the shared atomic
// bound prunes both in-flight flows and whole seeds as the best cut
// drops. The result does not depend on workers. Complete graphs (no
// non-adjacent pair) return n-1.
func Connectivity(d *Dense, workers int) int {
	n := d.Order()
	if n <= 1 {
		return 0
	}
	if !IsConnected(d, nil) {
		return 0
	}
	minDeg := minSimpleDegree(d)
	var pairs []connPair
	for seed := 0; seed < n && seed <= minDeg; seed++ {
		for v := 0; v < n; v++ {
			if v == seed || d.HasEdge(seed, v) {
				continue
			}
			pairs = append(pairs, connPair{int32(seed), int32(v)})
		}
	}
	var best atomic.Int32
	best.Store(int32(minDeg))
	runConnPairs(pairs, &best, workers, true, func() *FlowScratch { return NewFlowScratch(d) })
	return int(best.Load())
}

// ConnectivityVertexTransitive is Connectivity for a vertex-transitive
// d: some minimum cut avoids the base vertex 0 (an automorphism can
// always move the cut off it), so the single seed 0 suffices. All the
// Cayley graphs in this repository qualify.
func ConnectivityVertexTransitive(d *Dense, workers int) int {
	n := d.Order()
	if n <= 1 {
		return 0
	}
	if !IsConnected(d, nil) {
		return 0
	}
	var pairs []connPair
	for v := 1; v < n; v++ {
		if !d.HasEdge(0, v) {
			pairs = append(pairs, connPair{0, int32(v)})
		}
	}
	var best atomic.Int32
	best.Store(int32(minSimpleDegree(d)))
	runConnPairs(pairs, &best, workers, false, func() *FlowScratch { return NewFlowScratch(d) })
	return int(best.Load())
}

// EdgeConnectivity computes the edge connectivity of d exactly on the
// edge-doubled arena: every edge cut separates vertex 0 from some other
// vertex, so the pairs (0, v) cover all cuts; the minimum simple degree
// seeds the shared bound (lambda <= delta). Edge connectivity
// complements the paper's node fault tolerance: a network also loses
// links, and for the regular networks here lambda equals the degree.
// workers is as for Connectivity.
func EdgeConnectivity(d *Dense, workers int) int {
	n := d.Order()
	if n <= 1 {
		return 0
	}
	if !IsConnected(d, nil) {
		return 0
	}
	pairs := make([]connPair, 0, n-1)
	for v := 1; v < n; v++ {
		pairs = append(pairs, connPair{0, int32(v)})
	}
	var best atomic.Int32
	best.Store(int32(minSimpleDegree(d)))
	runConnPairs(pairs, &best, workers, false, func() *FlowScratch { return NewEdgeFlowScratch(d) })
	return int(best.Load())
}
