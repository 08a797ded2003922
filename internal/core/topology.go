package core

import (
	"fmt"

	"repro/internal/butterfly"
	"repro/internal/graph"
)

// Topology is the label-arithmetic view of a hyper-butterfly network:
// every operation is computed from (m, n, level, row) labels alone, so
// answering it never materialises the graph, even at HB(10,10) scale.
// *HyperButterfly implements it; the routers, the fault-avoiding engine
// and the hbd service take the interface, so a wrapper (a serving
// layer, a fault-injecting test double) can stand in for an instance.
//
// Order/AppendNeighbors make every Topology a graph.Graph, so the
// sampled estimators and verifiers run on any instance unchanged.
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

var _ Topology = (*HyperButterfly)(nil)

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

// hyper returns the instance a Topology computes on, so RouteBatch
// reaches its planned routing through this method; a wrapper that hides
// the instance behind the interface is answered through its own
// methods instead.
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
