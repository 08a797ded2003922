package core

import (
	"fmt"

	"repro/internal/butterfly"
	"repro/internal/graph"
)

// Topology is the label-arithmetic view of a hyper-butterfly network:
// every operation is computed from (m, n, level, row) labels alone, so a
// backend never needs to materialise the graph to answer it. Both
// *HyperButterfly (whose case-3 disjoint paths fall back to the cached
// dense adjacency — the oracle) and *Implicit (zero graph construction,
// usable at HB(10,10) scale) implement it, which lets the routers, the
// fault-avoiding engine, and the hbd service accept either backend.
//
// Order/AppendNeighbors make every Topology a graph.Graph, so the
// sampled estimators and verifiers run on implicit instances unchanged.
// Dense is the one exception to label arithmetic: it materialises the
// adjacency on first use, for BFS oracles on instances small enough to
// afford one.
type Topology interface {
	// Structure.
	Order() int
	Degree() int
	M() int
	N() int
	ValidNode(v Node) bool
	AppendNeighbors(v int, buf []int) []int
	VertexLabel(v Node) string

	// Analytic claims (Theorems 2, 3 and Corollary 1).
	EdgeCountFormula() int
	DiameterFormula() int
	ConnectivityFormula() int

	// Routing (Remarks 5-6, Section 3).
	Distance(u, v Node) int
	Route(u, v Node) []Node
	AppendRoute(u, v Node, buf []Node) []Node
	RouteMoves(u, v Node) []Move

	// Theorem 5 vertex-disjoint paths.
	DisjointPaths(u, v Node) ([][]Node, error)

	// Dense returns the materialised adjacency, built on first use.
	Dense() *graph.Dense
}

// Compile-time checks that both backends satisfy the interface.
var (
	_ Topology = (*HyperButterfly)(nil)
	_ Topology = (*Implicit)(nil)
)

// AppendRoute appends the shortest u-v path Route returns (both
// endpoints included) to buf, allocation-free when buf has capacity:
// the hypercube part is corrected lowest-dimension-first, then the
// butterfly walk is emitted run by run without materialising the move
// sequence. This is the routing primitive the hbd service and the
// giant-instance smoke tests run at HB(10,10) scale.
func (hb *HyperButterfly) AppendRoute(u, v Node, buf []Node) []Node {
	if !hb.ValidNode(u) || !hb.ValidNode(v) {
		panic(fmt.Sprintf("core: AppendRoute endpoints %d,%d out of range [0,%d)", u, v, hb.Order()))
	}
	_, walk := hb.planRoute(u, v)
	return hb.appendPlanned(u, v, walk, buf)
}

// hyper returns the instance a backend computes on. Both backends have
// one (Implicit embeds it), so RouteBatch reaches their planned routing
// through this method.
func (hb *HyperButterfly) hyper() *HyperButterfly { return hb }

// planRoute returns the u-v distance and the butterfly walk of the route
// AppendRoute emits, for appendPlanned to expand.
func (hb *HyperButterfly) planRoute(u, v Node) (int, butterfly.Walk) {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	d, walk := hb.bf.PlanWalk(bu, bv)
	return hb.cube.Distance(hu, hv) + d, walk
}

// appendPlanned is AppendRoute with the butterfly walk already planned.
func (hb *HyperButterfly) appendPlanned(u, v Node, walk butterfly.Walk, buf []Node) []Node {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	buf = append(buf, u)
	h := hu
	for d := hu ^ hv; d != 0; d &= d - 1 {
		h ^= d & -d
		buf = append(buf, h*hb.bSize+bu)
	}
	return hb.bf.AppendWalk(bu, bv, walk, hv*hb.bSize, buf)
}

// Implicit is the pure label-arithmetic backend of HB(m,n). It shares
// every analytic operation with HyperButterfly (neighbors, distance,
// routing — all already graph-free) but replaces the one dense
// dependency, case 3 of the Theorem 5 disjoint-path construction, with
// a local-window Menger extraction (see implicit.go). The product graph
// is never materialised: only the two factors are consulted, and only
// the butterfly factor B_n (order n·2^n, i.e. the full instance divided
// by 2^m) is ever built densely, for its own 4 disjoint factor paths.
type Implicit struct {
	*HyperButterfly
}

// NewImplicit returns the implicit backend for HB(m,n).
func NewImplicit(m, n int) (*Implicit, error) {
	hb, err := New(m, n)
	if err != nil {
		return nil, err
	}
	return &Implicit{hb}, nil
}

// MustNewImplicit is NewImplicit for known-good dimensions.
func MustNewImplicit(m, n int) *Implicit {
	t, err := NewImplicit(m, n)
	if err != nil {
		panic(err)
	}
	return t
}

// ImplicitOf wraps an existing instance, sharing its factor caches.
func ImplicitOf(hb *HyperButterfly) *Implicit { return &Implicit{hb} }

// DisjointPaths returns m+4 pairwise internally vertex-disjoint u-v
// paths (Theorem 5) without touching the product adjacency: cases 1 and
// 2 reuse the analytic factor constructions, and case 3 runs an exact
// Menger extraction on a small induced window around the analytic
// candidate paths (implicit.go).
func (t *Implicit) DisjointPaths(u, v Node) ([][]Node, error) {
	hb := t.HyperButterfly
	if u == v {
		return nil, fmt.Errorf("core: DisjointPaths endpoints equal (%d)", u)
	}
	if !hb.ValidNode(u) || !hb.ValidNode(v) {
		return nil, fmt.Errorf("core: endpoints %d,%d out of range [0,%d)", u, v, hb.Order())
	}
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	switch {
	case bu == bv:
		return hb.disjointCase1(hu, hv, bu)
	case hu == hv:
		return hb.disjointCase2(hu, bu, bv)
	default:
		return t.implicitCase3(u, v)
	}
}
