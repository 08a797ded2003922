package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzImplicitRoute drives the label-arithmetic router with arbitrary (m, n,
// src, dst) labels: after clamping into valid ranges, the emitted route
// must be a walk from src to dst of exactly Distance(src,dst) steps in
// which every hop is one of the label neighbors of its predecessor —
// i.e. shortestness and validity certified by label arithmetic alone.
func FuzzImplicitRoute(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint64(0), uint64(95))
	f.Add(uint8(0), uint8(4), uint64(17), uint64(3))
	f.Add(uint8(3), uint8(5), uint64(1<<20), uint64(42))
	f.Add(uint8(1), uint8(6), uint64(7), uint64(7))
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint8, srcRaw, dstRaw uint64) {
		m := int(mRaw % 5)   // 0..4
		n := 3 + int(nRaw%4) // 3..6
		hb, err := core.New(m, n)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", m, n, err)
		}
		order := uint64(hb.Order())
		u := core.Node(srcRaw % order)
		v := core.Node(dstRaw % order)

		dist := hb.Distance(u, v)
		if back := hb.Distance(v, u); back != dist {
			t.Fatalf("HB(%d,%d): Distance(%d,%d)=%d but Distance(%d,%d)=%d",
				m, n, u, v, dist, v, u, back)
		}
		if diam := hb.DiameterFormula(); dist < 0 || dist > diam {
			t.Fatalf("HB(%d,%d): Distance(%d,%d)=%d outside [0,%d]", m, n, u, v, dist, diam)
		}

		route := hb.AppendRoute(u, v, nil)
		if len(route) != dist+1 {
			t.Fatalf("HB(%d,%d): route %d..%d has %d vertices, Distance says %d steps",
				m, n, u, v, len(route), dist)
		}
		if route[0] != u || route[len(route)-1] != v {
			t.Fatalf("HB(%d,%d): route runs %d..%d, want %d..%d",
				m, n, route[0], route[len(route)-1], u, v)
		}
		var nbuf []int
		for i := 1; i < len(route); i++ {
			if !hb.ValidNode(route[i]) {
				t.Fatalf("HB(%d,%d): route emits invalid label %d", m, n, route[i])
			}
			nbuf = hb.AppendNeighbors(route[i-1], nbuf[:0])
			ok := false
			for _, w := range nbuf {
				if w == route[i] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("HB(%d,%d): route step %d-%d is not a label edge",
					m, n, route[i-1], route[i])
			}
		}
	})
}

// FuzzDisjointPaths drives Theorem 5 with arbitrary (m, n, u, v): after
// clamping into HB(0..10, 3..10), DisjointPaths must refuse u = v and
// otherwise return m+4 internally vertex-disjoint u-v paths, every hop
// checked against label-arithmetic neighbors, so no adjacency is built
// even at HB(10,10).
func FuzzDisjointPaths(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint64(0), uint64(12345))
	f.Add(uint8(10), uint8(10), uint64(7), uint64(1<<23))
	f.Add(uint8(1), uint8(3), uint64(5), uint64(29))
	f.Add(uint8(2), uint8(4), uint64(40), uint64(41))
	f.Add(uint8(0), uint8(5), uint64(9), uint64(9))
	var mu sync.Mutex
	instances := make(map[[2]int]*core.HyperButterfly)
	f.Fuzz(func(t *testing.T, mRaw, nRaw uint8, uRaw, vRaw uint64) {
		m := int(mRaw % 11)  // 0..10
		n := 3 + int(nRaw%8) // 3..10
		mu.Lock()
		hb := instances[[2]int{m, n}]
		if hb == nil {
			hb = core.MustNew(m, n)
			instances[[2]int{m, n}] = hb
		}
		mu.Unlock()
		order := uint64(hb.Order())
		u, v := core.Node(uRaw%order), core.Node(vRaw%order)
		paths, err := hb.DisjointPaths(u, v)
		if u == v {
			if err == nil {
				t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d) accepted equal endpoints", m, n, u, v)
			}
			return
		}
		if err != nil {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d): %v", m, n, u, v, err)
		}
		if len(paths) != hb.Degree() {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d) gave %d paths, want %d", m, n, u, v, len(paths), hb.Degree())
		}
		if err := graph.VerifyDisjointPaths(hb, u, v, paths); err != nil {
			t.Fatalf("HB(%d,%d): DisjointPaths(%d,%d): %v", m, n, u, v, err)
		}
	})
}
