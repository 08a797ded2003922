package noc

import (
	"fmt"

	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/graph"
)

// Escape describes the deadlock-free escape sub-network of an adaptive
// wormhole configuration, in the style of Duato's protocol: adaptive
// virtual channels may form cyclic dependencies, but every blocked worm
// can always fall back to an escape walk whose channels are totally
// ordered by a stage number (equivalently, by stage-decreasing link
// weights, the discipline the gem5 butterfly topology encodes as
// `weight = 50 - stage`). Because Stage is a property of the channel
// alone and strictly increases along every escape walk, the escape
// channel-dependency graph is acyclic — the checkable deadlock-freedom
// argument TestEscapeDependencyAcyclic and the conformance
// escape-acyclic invariant assert, replacing a purely observational
// deadlock detector.
type Escape interface {
	// Classes returns how many escape virtual channels each directed
	// link needs (dateline-style wrap classes; 1 when no link is ever
	// reused within one walk).
	Classes() int
	// MaxLen bounds the hop count of any escape walk.
	MaxLen() int
	// AppendHops appends the escape walk cur -> dst, one node per hop
	// (cur itself excluded), to path, and each hop's escape class to
	// cls. Both slices grow by the same amount. Implementations must be
	// safe for concurrent use and allocation-free when the slices have
	// capacity.
	AppendHops(cur, dst int, path []int32, cls []int8) ([]int32, []int8)
	// Stage returns the totally-ordered stage of the escape channel for
	// hop u -> v in class c. Stages strictly increase along every walk
	// AppendHops emits; the corresponding link weight is
	// maxStage - Stage, decreasing along the walk.
	Stage(u, v int, c int8) int
}

// HBEscape is the hyper-butterfly escape discipline: the walk corrects
// the hypercube part dimension by dimension in ascending order (e-cube,
// stages 0..m-1), then walks the sub-butterfly ring clockwise only
// (g/f moves), flipping each differing symbol as its level passes the
// front, until the label matches (stages m..m+3n-1). A clockwise walk
// of at most 2n-1 hops crosses the level-ring dateline (permutation
// index n-1 -> 0) at most twice, so three wrap classes suffice; the
// class bumps on every dateline hop, which keeps the stage
//
//	stage = m + class·n + ((pi+1) mod n)
//
// strictly increasing along the walk even across the wrap.
type HBEscape struct {
	hb *core.HyperButterfly
	m  int
	n  int
}

// NewHBEscape returns the escape discipline for hb.
func NewHBEscape(hb *core.HyperButterfly) *HBEscape {
	return &HBEscape{hb: hb, m: hb.M(), n: hb.N()}
}

// Classes implements Escape: three dateline wrap classes.
func (e *HBEscape) Classes() int { return 3 }

// MaxLen implements Escape: m cube hops plus at most 2n-1 ring hops.
func (e *HBEscape) MaxLen() int { return e.m + 2*e.n }

// AppendHops implements Escape.
func (e *HBEscape) AppendHops(cur, dst int, path []int32, cls []int8) ([]int32, []int8) {
	hb := e.hb
	hu, bu := hb.Decode(cur)
	hv, bv := hb.Decode(dst)
	// Hypercube phase: lowest dimension first, class 0.
	h := hu
	for d := hu ^ hv; d != 0; d &= d - 1 {
		h ^= d & -d
		path = append(path, int32(hb.Encode(h, bu)))
		cls = append(cls, 0)
	}
	// Butterfly phase: clockwise ring walk in the sub-butterfly hv.
	bf := hb.Butterfly()
	_, mv := bf.Split(bv)
	b := bu
	class := int8(0)
	for steps := 0; b != bv; steps++ {
		if steps > 2*e.n {
			panic(fmt.Sprintf("noc: escape walk %d->%d did not terminate", cur, dst))
		}
		pi, mask := bf.Split(b)
		gen := butterfly.GenG
		if (mask^mv)>>uint(pi)&1 == 1 {
			gen = butterfly.GenF // fix symbol t_{pi+1} while it is in front
		}
		if pi == e.n-1 {
			class++ // dateline hop and everything after it use the next class
		}
		b = bf.Apply(gen, b)
		path = append(path, int32(hb.Encode(hv, b)))
		cls = append(cls, class)
	}
	return path, cls
}

// Stage implements Escape.
func (e *HBEscape) Stage(u, v int, c int8) int {
	hb := e.hb
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	if bu == bv && hu != hv {
		d := hu ^ hv
		if d&(d-1) != 0 {
			panic(fmt.Sprintf("noc: %d->%d is not a hypercube edge", u, v))
		}
		bit := 0
		for d > 1 {
			d >>= 1
			bit++
		}
		return bit
	}
	bf := hb.Butterfly()
	pu := bf.PI(bu)
	if hu != hv || bf.PI(bv) != (pu+1)%e.n {
		panic(fmt.Sprintf("noc: %d->%d is not a clockwise butterfly edge", u, v))
	}
	return e.m + int(c)*e.n + (pu+1)%e.n
}

// TreeEscape is the generic escape discipline for an arbitrary
// connected graph: walks go up the BFS tree rooted at node 0 to the
// root, then down the tree to the destination. Up channels (child ->
// parent) and down channels (parent -> child) are distinct directed
// edges, so a single escape virtual channel suffices; stages order up
// channels by decreasing depth and down channels — all later — by
// increasing depth, which makes every walk stage-monotone.
type TreeEscape struct {
	parent   []int32
	depth    []int32
	maxDepth int
}

// NewTreeEscape builds the BFS-tree escape for g; it returns an error
// when g is disconnected.
func NewTreeEscape(g graph.Graph) (*TreeEscape, error) {
	n := g.Order()
	t := &TreeEscape{parent: make([]int32, n), depth: make([]int32, n)}
	for i := range t.parent {
		t.parent[i] = -1
	}
	t.parent[0] = 0
	queue := make([]int32, 1, n)
	var buf []int
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		buf = g.AppendNeighbors(v, buf[:0])
		for _, w := range buf {
			if t.parent[w] == -1 {
				t.parent[w] = int32(v)
				t.depth[w] = t.depth[v] + 1
				if int(t.depth[w]) > t.maxDepth {
					t.maxDepth = int(t.depth[w])
				}
				queue = append(queue, int32(w))
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("noc: tree escape needs a connected graph (%d of %d reached)", len(queue), n)
	}
	return t, nil
}

// Classes implements Escape.
func (t *TreeEscape) Classes() int { return 1 }

// MaxLen implements Escape.
func (t *TreeEscape) MaxLen() int { return 2 * t.maxDepth }

// AppendHops implements Escape.
func (t *TreeEscape) AppendHops(cur, dst int, path []int32, cls []int8) ([]int32, []int8) {
	for x := int32(cur); t.depth[x] > 0; x = t.parent[x] {
		path = append(path, t.parent[x])
		cls = append(cls, 0)
	}
	// Emit the down segment by walking dst -> root and reversing in
	// place, so no scratch buffer is needed and the method stays safe
	// for concurrent use.
	start := len(path)
	for x := int32(dst); t.depth[x] > 0; x = t.parent[x] {
		path = append(path, x)
		cls = append(cls, 0)
	}
	for i, j := start, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, cls
}

// Stage implements Escape.
func (t *TreeEscape) Stage(u, v int, c int8) int {
	switch {
	case int(t.parent[u]) == v && t.depth[u] == t.depth[v]+1:
		return t.maxDepth - int(t.depth[u]) // up: deeper channels first
	case int(t.parent[v]) == u && t.depth[v] == t.depth[u]+1:
		return t.maxDepth + int(t.depth[v]) // down: all after every up
	default:
		panic(fmt.Sprintf("noc: %d->%d is not a tree-escape edge", u, v))
	}
}
