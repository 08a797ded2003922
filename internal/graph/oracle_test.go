package graph

import "fmt"

// This file is the test-only differential oracle for the Menger engine
// of menger.go: the pre-engine max-flow (Dinic's algorithm on a
// [][]flowEdge network rebuilt per call, recursive augmentation) on the
// standard node-split digraph — every vertex v becomes v_in -> v_out of
// capacity 1, infinite for the terminals, and every undirected edge
// {u,w} becomes arcs u_out -> w_in and w_out -> u_in of capacity 1 — and
// on the directed doubling for edge connectivity. The *Reference
// functions are exported so the graph_test benchmarks and
// TestEmitBenchConn (BENCH_conn.json) can pair each engine path with
// its baseline.

type flowEdge struct {
	to  int32
	cap int8
	rev int32 // index of reverse edge in adjacency of `to`
}

type flowNet struct {
	edges [][]flowEdge
	level []int32
	iter  []int32
}

func newFlowNet(n int) *flowNet {
	return &flowNet{
		edges: make([][]flowEdge, n),
		level: make([]int32, n),
		iter:  make([]int32, n),
	}
}

func (f *flowNet) addArc(from, to int, cap int8) {
	f.edges[from] = append(f.edges[from], flowEdge{to: int32(to), cap: cap, rev: int32(len(f.edges[to]))})
	f.edges[to] = append(f.edges[to], flowEdge{to: int32(from), cap: 0, rev: int32(len(f.edges[from]) - 1)})
}

func (f *flowNet) bfsLevel(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	queue := []int32{int32(s)}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range f.edges[v] {
			if e.cap > 0 && f.level[e.to] == -1 {
				f.level[e.to] = f.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return f.level[t] != -1
}

func (f *flowNet) dfsAugment(v, t int) bool {
	if v == t {
		return true
	}
	for ; f.iter[v] < int32(len(f.edges[v])); f.iter[v]++ {
		e := &f.edges[v][f.iter[v]]
		if e.cap > 0 && f.level[e.to] == f.level[v]+1 {
			if f.dfsAugment(int(e.to), t) {
				e.cap--
				f.edges[e.to][e.rev].cap++
				return true
			}
		}
	}
	return false
}

// maxFlow runs Dinic from s to t, stopping early once flow reaches limit
// (pass a negative limit for unbounded).
func (f *flowNet) maxFlow(s, t, limit int) int {
	flow := 0
	for f.bfsLevel(s, t) {
		for i := range f.iter {
			f.iter[i] = 0
		}
		for f.dfsAugment(s, t) {
			flow++
			if limit >= 0 && flow >= limit {
				return flow
			}
		}
	}
	return flow
}

// buildSplit constructs the node-split flow network of g with terminals
// s and t (whose internal arcs get effectively infinite capacity, here
// 127, far above any degree used in this repository).
func buildSplit(d *Dense, s, t int) *flowNet {
	n := d.Order()
	f := newFlowNet(2 * n)
	for v := 0; v < n; v++ {
		cap := int8(1)
		if v == s || v == t {
			cap = 127
		}
		f.addArc(splitIn(v), splitOut(v), cap)
		prev := int32(-1)
		for _, w := range d.Neighbors(v) {
			if w == prev || int(w) == v {
				prev = w
				continue // ignore multi-edges and self-loops for connectivity
			}
			prev = w
			f.addArc(splitOut(v), splitIn(int(w)), 1)
		}
	}
	return f
}

// LocalConnectivityReference is FlowScratch.LocalConnectivity (without
// a limit) on the pre-engine network: rebuilt from scratch per call and
// augmented recursively.
func LocalConnectivityReference(d *Dense, s, t int) int {
	if s == t {
		panic("graph: LocalConnectivity of a vertex with itself")
	}
	f := buildSplit(d, s, t)
	return f.maxFlow(splitOut(s), splitIn(t), -1)
}

// ConnectivityReference is the pre-engine Connectivity: serial seed
// loop, unbounded flows, network rebuilt per pair.
func ConnectivityReference(d *Dense) int {
	n := d.Order()
	if n <= 1 {
		return 0
	}
	if !IsConnected(d, nil) {
		return 0
	}
	best := n - 1
	for seed := 0; seed < n && seed <= best; seed++ {
		for v := 0; v < n; v++ {
			if v == seed || d.HasEdge(seed, v) {
				continue
			}
			if c := LocalConnectivityReference(d, seed, v); c < best {
				best = c
			}
		}
	}
	return best
}

// buildEdgeNet constructs a unit-capacity directed network with one arc
// pair per undirected edge.
func buildEdgeNet(d *Dense) *flowNet {
	n := d.Order()
	f := newFlowNet(n)
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for _, w := range d.Neighbors(v) {
			if w == prev || int(w) == v || int(w) < v {
				prev = w
				continue
			}
			prev = w
			// One capacity-1 arc in each direction, added as two
			// independent arcs so either direction can carry flow.
			f.addArc(v, int(w), 1)
			f.addArc(int(w), v, 1)
		}
	}
	return f
}

// LocalEdgeConnectivityReference is FlowScratch.LocalEdgeConnectivity
// (without a limit) on the pre-engine network: rebuilt per call,
// recursive augmentation.
func LocalEdgeConnectivityReference(d *Dense, s, t int) int {
	if s == t {
		panic("graph: LocalEdgeConnectivity of a vertex with itself")
	}
	f := buildEdgeNet(d)
	return f.maxFlow(s, t, -1)
}

// EdgeConnectivityReference is the pre-engine EdgeConnectivity: serial,
// unbounded flows, network rebuilt per pair.
func EdgeConnectivityReference(d *Dense) int {
	n := d.Order()
	if n <= 1 {
		return 0
	}
	if !IsConnected(d, nil) {
		return 0
	}
	best := -1
	for v := 1; v < n; v++ {
		c := LocalEdgeConnectivityReference(d, 0, v)
		if best == -1 || c < best {
			best = c
		}
	}
	return best
}

// NodeToSetDisjointPathsReference is the pre-engine
// NodeToSetDisjointPaths: a unit-capacity max-flow on a node-split
// network with a super-sink attached to every target (targets keep
// capacity 1 so each is the endpoint of exactly one path), decomposed
// by a hand-written walk over the flow-carrying arcs. It validates the
// targets exactly as the engine path does and returns the same errors.
func NodeToSetDisjointPathsReference(d *Dense, src int, targets []int) ([][]int, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	n := d.Order()
	isTarget := make(map[int]bool, len(targets))
	for _, t := range targets {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("graph: target %d out of range [0,%d)", t, n)
		}
		if t == src {
			return nil, fmt.Errorf("graph: source %d cannot be its own target", src)
		}
		if isTarget[t] {
			return nil, fmt.Errorf("graph: duplicate target %d", t)
		}
		isTarget[t] = true
	}

	// Node-split network plus a super-sink at index 2n.
	f := newFlowNet(2*n + 1)
	sink := 2 * n
	for v := 0; v < n; v++ {
		cap := int8(1)
		if v == src {
			cap = 127
		}
		f.addArc(splitIn(v), splitOut(v), cap)
		prev := int32(-1)
		for _, w := range d.Neighbors(v) {
			if w == prev || int(w) == v {
				prev = w
				continue
			}
			prev = w
			f.addArc(splitOut(v), splitIn(int(w)), 1)
		}
	}
	for t := range isTarget {
		f.addArc(splitOut(t), sink, 1)
	}
	flow := f.maxFlow(splitOut(src), sink, len(targets))
	if flow != len(targets) {
		return nil, fmt.Errorf("graph: only %d of %d disjoint paths exist from %d", flow, len(targets), src)
	}

	// Decompose: walk flow-carrying arcs from src; each walk ends at a
	// target whose sink arc is saturated.
	used := make([][]bool, len(f.edges))
	for v := range used {
		used[v] = make([]bool, len(f.edges[v]))
	}
	next := func(v int) int {
		for i, e := range f.edges[v] {
			if used[v][i] || int(e.to) == sink {
				continue
			}
			if f.edges[e.to][e.rev].cap > 0 && isForwardArc(f, v, i) {
				used[v][i] = true
				return int(e.to)
			}
		}
		return -1
	}
	// A walk can never pass *through* a target: its split arc has
	// capacity 1 and that unit leaves via the sink, so every walk from
	// src terminates exactly at its own target (loops en route are cut
	// out as in DisjointPaths).
	paths := make([][]int, 0, len(targets))
	for k := 0; k < len(targets); k++ {
		path := []int{src}
		at := map[int]int{src: 0}
		v := splitOut(src)
		for {
			w := next(v)
			if w == -1 {
				break
			}
			orig := w / 2
			if i, seen := at[orig]; seen {
				for _, x := range path[i+1:] {
					delete(at, x)
				}
				path = path[:i+1]
			} else {
				at[orig] = len(path)
				path = append(path, orig)
			}
			v = splitOut(orig)
		}
		last := path[len(path)-1]
		if !isTarget[last] {
			return nil, fmt.Errorf("graph: flow decomposition ended at non-target %d", last)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// isForwardArc reports whether edge index i out of v was created by
// addArc as a real (capacity-bearing) arc rather than a residual. Real
// arcs from an out-node go to in-nodes; real arcs from an in-node go to
// the matching out-node.
func isForwardArc(f *flowNet, v, i int) bool {
	e := f.edges[v][i]
	if v%2 == 1 { // out-node: forward arcs lead to in-nodes of neighbors
		return e.to%2 == 0
	}
	// in-node: the only forward arc is to its own out-node
	return int(e.to) == v+1
}
