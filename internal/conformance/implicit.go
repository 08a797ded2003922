package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// The implicit-vs-dense differential sweep behind `hbcheck -implicit`:
// a heavier, exhaustive cousin of the conformance invariants. For every
// HB(m,n) in the range it compares the label arithmetic against the
// materialised adjacency and its BFS oracle over ALL vertices
// (neighbors) and ALL ordered pairs (distance + route), plus sampled
// Theorem 5 constructions verified on that adjacency and cross-checked
// against a max-flow on it. CI runs it as the implicit-gate step.

// ImplicitDiff is the differential result for one instance.
type ImplicitDiff struct {
	Name             string  `json:"name"`
	Order            int     `json:"order"`
	NeighborsChecked int     `json:"neighbors_checked"`
	PairsChecked     int     `json:"pairs_checked"`
	DisjointPairs    int     `json:"disjoint_pairs"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	Error            string  `json:"error,omitempty"`
}

// ImplicitReport aggregates the sweep; Fail counts failed instances.
type ImplicitReport struct {
	Instances []ImplicitDiff `json:"instances"`
	Fail      int            `json:"fail"`
}

// OK reports whether every instance matched its dense oracle.
func (r *ImplicitReport) OK() bool { return r.Fail == 0 }

// JSON renders the report for the CI gate.
func (r *ImplicitReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// WriteText renders a human-readable table with per-instance timings.
func (r *ImplicitReport) WriteText(w io.Writer) { r.write(w, true) }

// Canonical renders the table without timings, so two runs of one
// build give identical bytes.
func (r *ImplicitReport) Canonical() []byte {
	var buf bytes.Buffer
	r.write(&buf, false)
	return buf.Bytes()
}

func (r *ImplicitReport) write(w io.Writer, timed bool) {
	for _, d := range r.Instances {
		status := "ok"
		if d.Error != "" {
			status = "FAIL: " + d.Error
		}
		fmt.Fprintf(w, "%-10s order=%-6d neighbors=%-6d pairs=%-8d disjoint=%-4d",
			d.Name, d.Order, d.NeighborsChecked, d.PairsChecked, d.DisjointPairs)
		if timed {
			fmt.Fprintf(w, " %8.1fms", d.ElapsedMS)
		}
		fmt.Fprintf(w, "  %s\n", status)
	}
	fmt.Fprintf(w, "implicit differential: %d instance(s), %d failed\n", len(r.Instances), r.Fail)
}

// ImplicitSweep runs the differential over every valid HB(m,n) in the
// inclusive ranges, checking disjointPairs sampled pairs per instance
// (<= 0 means 48): each constructed path set must verify on the built
// adjacency, and a max-flow on that adjacency must find no more paths.
func ImplicitSweep(mLo, mHi, nLo, nHi, disjointPairs int) (*ImplicitReport, error) {
	if mLo > mHi || nLo > nHi {
		return nil, fmt.Errorf("conformance: empty implicit sweep m=[%d,%d] n=[%d,%d]", mLo, mHi, nLo, nHi)
	}
	if disjointPairs <= 0 {
		disjointPairs = 48
	}
	rep := &ImplicitReport{}
	for m := mLo; m <= mHi; m++ {
		for n := nLo; n <= nHi; n++ {
			if n < 3 {
				continue
			}
			hb, err := core.New(m, n)
			if err != nil {
				return nil, err
			}
			d := implicitDiffInstance(hb, disjointPairs)
			if d.Error != "" {
				rep.Fail++
			}
			rep.Instances = append(rep.Instances, d)
		}
	}
	if len(rep.Instances) == 0 {
		return nil, fmt.Errorf("conformance: implicit sweep m=[%d,%d] n=[%d,%d] has no valid HB instances", mLo, mHi, nLo, nHi)
	}
	return rep, nil
}

func implicitDiffInstance(hb *core.HyperButterfly, disjointPairs int) (out ImplicitDiff) {
	order := hb.Order()
	out = ImplicitDiff{Name: fmt.Sprintf("HB(%d,%d)", hb.M(), hb.N()), Order: order}
	start := time.Now()
	defer func() { out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond) }()
	d := graph.Build(hb)

	var buf []int
	for v := 0; v < order; v++ {
		buf = hb.AppendNeighbors(v, buf[:0])
		sort.Ints(buf)
		row := d.Neighbors(v)
		if len(buf) != len(row) {
			out.Error = fmt.Sprintf("vertex %d: %d implicit neighbors, dense %d", v, len(buf), len(row))
			return out
		}
		for i, w := range row {
			if buf[i] != int(w) {
				out.Error = fmt.Sprintf("vertex %d: implicit row %v != dense %v", v, buf, row)
				return out
			}
		}
		out.NeighborsChecked++
	}

	s := graph.NewScratch(order)
	route := make([]core.Node, 0, hb.DiameterFormula()+1)
	for u := 0; u < order; u++ {
		dist := d.BFSScratch(u, nil, s)
		for v := 0; v < order; v++ {
			want := int(dist[v])
			if got := hb.Distance(u, v); got != want {
				out.Error = fmt.Sprintf("Distance(%d,%d) = %d, BFS %d", u, v, got, want)
				return out
			}
			route = hb.AppendRoute(u, v, route[:0])
			if len(route) != want+1 || route[0] != u || route[len(route)-1] != v {
				out.Error = fmt.Sprintf("route %d->%d has %d vertices (%d..%d), BFS distance %d",
					u, v, len(route), route[0], route[len(route)-1], want)
				return out
			}
			for i := 1; i < len(route); i++ {
				if !d.HasEdge(route[i-1], route[i]) {
					out.Error = fmt.Sprintf("route %d->%d uses non-edge %d-%d", u, v, route[i-1], route[i])
					return out
				}
			}
			out.PairsChecked++
		}
	}

	want := hb.ConnectivityFormula()
	fs := graph.NewFlowScratch(d)
	rng := rand.New(rand.NewSource(int64(977*hb.M() + 31*hb.N())))
	for trial := 0; trial < disjointPairs; trial++ {
		u, v := distinctPair(rng, order)
		paths, err := hb.DisjointPaths(u, v)
		if err != nil {
			out.Error = fmt.Sprintf("DisjointPaths(%d,%d): %v", u, v, err)
			return out
		}
		if len(paths) != want {
			out.Error = fmt.Sprintf("DisjointPaths(%d,%d): %d paths, want %d", u, v, len(paths), want)
			return out
		}
		if err := graph.VerifyDisjointPaths(d, u, v, paths); err != nil {
			out.Error = fmt.Sprintf("DisjointPaths(%d,%d): %v", u, v, err)
			return out
		}
		flow, err := fs.DisjointPaths(u, v, -1)
		if err != nil || len(flow) != want {
			out.Error = fmt.Sprintf("max-flow oracle for (%d,%d): %d paths, err=%v", u, v, len(flow), err)
			return out
		}
		out.DisjointPairs++
	}
	return out
}
