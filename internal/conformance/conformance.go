// Package conformance is the single engine that asserts every
// machine-checkable claim of the paper (T1-T5, C1, R6) against every
// topology in the repository. Each claim is an Invariant in a
// table-driven registry; each network instance is a Target declaring
// which analytic quantities it stands behind. The runner executes the
// (target, invariant) matrix on a worker pool with per-check timing and
// produces a structured Report whose canonical form is byte-identical
// regardless of worker count, so CI can diff it and cmd/hbcheck can
// gate on it.
//
// Topology packages register themselves in their tests with a single
// Suite call; cmd/hbcheck sweeps (m,n) ranges over the same registry.
package conformance

import (
	"fmt"
	"sync"

	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/debruijn"
	"repro/internal/faultroute"
	"repro/internal/graph"
	"repro/internal/hypercube"
	"repro/internal/hyperdebruijn"
	"repro/internal/noc"
)

// Target is one network instance under test together with the analytic
// claims it makes. Quantities set to -1 (or nil functions) are "not
// claimed" and the corresponding invariants report as skipped rather
// than failed.
type Target struct {
	Name  string
	Graph graph.Graph

	Order int // expected vertex count
	Edges int // expected undirected edge count; -1 = no closed form claimed

	MinDegree int
	MaxDegree int
	Regular   bool

	Diameter     int // expected exact diameter; -1 = not claimed
	Connectivity int // expected vertex connectivity; -1 = not claimed

	// EdgeConnectivity is the expected exact edge connectivity; <= 0 =
	// not claimed. Every family here is maximally connected (kappa =
	// minimum degree), so Whitney's kappa <= lambda <= delta pins lambda
	// to the minimum degree as well.
	EdgeConnectivity int

	// VertexTransitive lets the diameter and connectivity invariants use
	// the single-source shortcuts valid for Cayley graphs (Remark 7).
	VertexTransitive bool
	// Cayley enables the generator-action invariant (Remark 3):
	// fixed-point-free generators with pairwise distinct images.
	Cayley bool

	// Distance, if non-nil, must return the exact shortest-path distance.
	Distance func(u, v int) int
	// Route, if non-nil, returns a u-v walk including both endpoints.
	// With RouteOptimal set it must be a shortest path (claim R6);
	// otherwise its length must not exceed RouteBound.
	Route        func(u, v int) []int
	RouteOptimal bool
	RouteBound   int
	// AppendRoute, if non-nil, is the target's allocation-free router,
	// a code path separate from Route; route-optimal holds it to the
	// same contract.
	AppendRoute func(u, v int, buf []int) []int

	// DisjointPaths, if non-nil, must return exactly PathCount pairwise
	// internally vertex-disjoint u-v paths (Theorem 5).
	DisjointPaths func(u, v int) ([][]int, error)
	PathCount     int

	// FaultRoute, if non-nil, must deliver a fault-free u-v path for any
	// fault set of size at most MaxFaults excluding the endpoints
	// (Remark 10).
	FaultRoute func(faults []int, u, v int) ([]int, error)
	MaxFaults  int

	// Escape, if non-nil, is the deadlock-free escape discipline the NoC
	// engine uses on this topology (noc.NewHBEscape for HB). Nil targets
	// fall back to the generic BFS-tree escape. The escape-acyclic
	// invariant holds either to Duato's condition: every escape walk
	// climbs strictly in stage, so the channel-dependency graph over
	// (link, class) escape channels is acyclic.
	Escape noc.Escape

	// Seed drives the deterministic sampling of pairwise checks.
	Seed int64
}

// Hypercube returns the conformance target for H_m, m >= 1.
func Hypercube(m int) Target {
	c := hypercube.MustNew(m)
	return Target{
		Name:             fmt.Sprintf("H(%d)", m),
		Graph:            c,
		Order:            1 << uint(m),
		Edges:            c.EdgeCountFormula(),
		MinDegree:        m,
		MaxDegree:        m,
		Regular:          true,
		Diameter:         c.DiameterFormula(),
		Connectivity:     c.ConnectivityFormula(),
		EdgeConnectivity: m,
		VertexTransitive: true,
		Cayley:           true,
		Distance:         c.Distance,
		Route:            c.Route,
		RouteOptimal:     true,
		DisjointPaths:    c.DisjointPaths,
		PathCount:        m,
		Seed:             int64(101*m + 7),
	}
}

// Butterfly returns the conformance target for the wrapped butterfly
// B_n, n >= 3.
func Butterfly(n int) Target {
	b := butterfly.MustNew(n)
	return Target{
		Name:             fmt.Sprintf("B(%d)", n),
		Graph:            b,
		Order:            b.Order(),
		Edges:            b.EdgeCountFormula(),
		MinDegree:        4,
		MaxDegree:        4,
		Regular:          true,
		Diameter:         b.DiameterFormula(),
		Connectivity:     b.ConnectivityFormula(),
		EdgeConnectivity: 4,
		VertexTransitive: true,
		Cayley:           true,
		Distance:         b.Distance,
		Route:            b.Route,
		RouteOptimal:     true,
		DisjointPaths:    b.DisjointPaths,
		PathCount:        4,
		Seed:             int64(211*n + 3),
	}
}

// DeBruijn returns the conformance target for the binary de Bruijn
// graph D_n. D_n is irregular (the loop words drop to degree 2) and its
// standard shift routing is only n-bounded, not optimal — exactly the
// HD weaknesses the paper's comparison leans on.
func DeBruijn(n int) Target {
	g := debruijn.MustNew(n)
	return Target{
		Name:             fmt.Sprintf("D(%d)", n),
		Graph:            g,
		Order:            1 << uint(n),
		Edges:            -1,
		MinDegree:        2,
		MaxDegree:        4,
		Regular:          false,
		Diameter:         g.DiameterFormula(),
		Connectivity:     g.ConnectivityFormula(),
		EdgeConnectivity: 2,
		Route:            g.Route,
		RouteBound:       g.RouteLengthBound(),
		Seed:             int64(307*n + 11),
	}
}

// HyperDeBruijn returns the conformance target for HD(m,n), the
// baseline of Figures 1-2.
func HyperDeBruijn(m, n int) Target {
	hd := hyperdebruijn.MustNew(m, n)
	return Target{
		Name:             fmt.Sprintf("HD(%d,%d)", m, n),
		Graph:            hd,
		Order:            hd.Order(),
		Edges:            -1,
		MinDegree:        hd.MinDegree(),
		MaxDegree:        hd.MaxDegree(),
		Regular:          false,
		Diameter:         hd.DiameterFormula(),
		Connectivity:     hd.ConnectivityFormula(),
		EdgeConnectivity: hd.MinDegree(),
		Route:            hd.Route,
		RouteBound:       hd.RouteLengthBound(),
		Seed:             int64(401*m + 13*n),
	}
}

// HyperButterfly returns the conformance target for HB(m,n), carrying
// the full claim set: Theorem 2 counts, Theorem 3 diameter, Theorem 5 /
// Corollary 1 connectivity and disjoint paths, R6 optimal routing and
// Remark 10 fault-tolerant delivery.
func HyperButterfly(m, n int) Target {
	return HyperButterflyInstance(core.MustNew(m, n))
}

// HyperButterflyInstance is HyperButterfly for a prebuilt instance, so
// long-lived callers (the hbd /conformance endpoint) share the
// instance — and its lazily materialised dense adjacency — with their
// other query paths instead of reconstructing per request.
func HyperButterflyInstance(hb *core.HyperButterfly) Target {
	m, n := hb.M(), hb.N()
	// One incremental router serves every fault-tolerance trial on this
	// instance: consecutive trials differ by a handful of faults, so each
	// call pays a set diff instead of a router rebuild. The harness runs
	// invariants in parallel, hence the lock around the diff+route pair.
	fr, frErr := faultroute.New(hb, nil)
	var frMu sync.Mutex
	return Target{
		Name:             fmt.Sprintf("HB(%d,%d)", m, n),
		Graph:            hb,
		Order:            hb.Order(),
		Edges:            hb.EdgeCountFormula(),
		MinDegree:        hb.Degree(),
		MaxDegree:        hb.Degree(),
		Regular:          true,
		Diameter:         hb.DiameterFormula(),
		Connectivity:     hb.ConnectivityFormula(),
		EdgeConnectivity: hb.Degree(),
		VertexTransitive: true,
		Cayley:           true,
		Distance:         hb.Distance,
		Route:            hb.Route,
		RouteOptimal:     true,
		AppendRoute:      hb.AppendRoute,
		DisjointPaths:    hb.DisjointPaths,
		PathCount:        hb.Degree(),
		FaultRoute: func(faults []int, u, v int) ([]int, error) {
			if frErr != nil {
				return nil, frErr
			}
			frMu.Lock()
			defer frMu.Unlock()
			if err := fr.SetFaults(faults); err != nil {
				return nil, err
			}
			return fr.Route(u, v)
		},
		MaxFaults: hb.M() + 3,
		Escape:    noc.NewHBEscape(hb),
		Seed:      int64(503*m + 17*n),
	}
}

// Sweep returns the default target set over m in [mLo,mHi] and n in
// [nLo,nHi]: one H per m, one B and one D per n, and one HD and HB per
// (m,n) pair. Dimensions outside a family's validity range (H needs
// m >= 1, B needs n >= 3, D needs n >= 2) are skipped rather than
// rejected so callers can sweep m from 0.
func Sweep(mLo, mHi, nLo, nHi int) ([]Target, error) {
	if mLo > mHi || nLo > nHi {
		return nil, fmt.Errorf("conformance: empty sweep m=[%d,%d] n=[%d,%d]", mLo, mHi, nLo, nHi)
	}
	var out []Target
	for m := mLo; m <= mHi; m++ {
		if m >= 1 {
			if _, err := hypercube.New(m); err != nil {
				return nil, err
			}
			out = append(out, Hypercube(m))
		}
	}
	for n := nLo; n <= nHi; n++ {
		if n >= 3 {
			if _, err := butterfly.New(n); err != nil {
				return nil, err
			}
			out = append(out, Butterfly(n))
		}
		if n >= 2 {
			if _, err := debruijn.New(n); err != nil {
				return nil, err
			}
			out = append(out, DeBruijn(n))
		}
	}
	for m := mLo; m <= mHi; m++ {
		for n := nLo; n <= nHi; n++ {
			if n >= 2 {
				if _, err := hyperdebruijn.New(m, n); err != nil {
					return nil, err
				}
				out = append(out, HyperDeBruijn(m, n))
			}
			if n >= 3 {
				if _, err := core.New(m, n); err != nil {
					return nil, err
				}
				out = append(out, HyperButterfly(m, n))
			}
		}
	}
	return out, nil
}
