package graph

import (
	"fmt"
	"math"
)

// Unreachable is the distance reported for vertices not connected to the
// BFS source.
const Unreachable = int32(math.MaxInt32)

// BFS computes single-source shortest-path distances from src in g.
// Faulty vertices (excluded[v] == true) are treated as deleted; excluded
// may be nil. The source itself must not be excluded.
//
// Dense graphs are dispatched to the direction-optimizing CSR kernel
// (see kernel.go); other Graph implementations run BFSReference.
// Callers running many BFS over one Dense should hold a Scratch and
// call Dense.BFSScratch to skip the per-call allocation.
func BFS(g Graph, src int, excluded []bool) []int32 {
	if d, ok := g.(*Dense); ok {
		// A fresh Scratch per call keeps the returned slice caller-owned,
		// matching the historical contract.
		return d.BFSScratch(src, excluded, NewScratch(d.Order()))
	}
	return BFSReference(g, src, excluded)
}

// BFSReference is the straightforward interface-dispatched BFS. It is
// the production path for every Graph that is not a Dense — BFS,
// Eccentricity and IsConnected fall back to it, and a label-arithmetic
// *core.HyperButterfly reaches it through faultroute's IsConnected and
// hbd's exact /estimate — and the differential-testing oracle for the
// CSR kernel. Semantics are identical to BFS.
func BFSReference(g Graph, src int, excluded []bool) []int32 {
	n := g.Order()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if excluded != nil && excluded[src] {
		panic(fmt.Sprintf("graph: BFS source %d is excluded", src))
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	var buf []int
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		dv := dist[v]
		buf = g.AppendNeighbors(v, buf[:0])
		for _, w := range buf {
			if dist[w] != Unreachable || (excluded != nil && excluded[w]) {
				continue
			}
			dist[w] = dv + 1
			queue = append(queue, int32(w))
		}
	}
	return dist
}

// BFSPath returns one shortest path from src to dst as a vertex sequence
// including both endpoints, or nil if dst is unreachable. Faulty vertices
// in excluded are avoided.
func BFSPath(g Graph, src, dst int, excluded []bool) []int {
	n := g.Order()
	if src == dst {
		return []int{src}
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int32(src)
	queue := []int32{int32(src)}
	var buf []int
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		buf = g.AppendNeighbors(v, buf[:0])
		for _, w := range buf {
			if parent[w] != -1 || (excluded != nil && excluded[w]) {
				continue
			}
			parent[w] = int32(v)
			if w == dst {
				return tracePath(parent, src, dst)
			}
			queue = append(queue, int32(w))
		}
	}
	return nil
}

func tracePath(parent []int32, src, dst int) []int {
	rev := []int{dst}
	for v := dst; v != src; {
		v = int(parent[v])
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Eccentricity returns the maximum finite BFS distance from src and
// whether every vertex was reached. Dense graphs use the CSR kernel,
// which tracks both quantities during the traversal.
func Eccentricity(g Graph, src int) (ecc int, connected bool) {
	if d, ok := g.(*Dense); ok {
		return d.EccentricityScratch(src, NewScratch(d.Order()))
	}
	dist := BFSReference(g, src, nil)
	connected = true
	for _, d := range dist {
		if d == Unreachable {
			connected = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, connected
}

// Diameter computes the exact diameter of g on the bit-parallel
// all-sources sweep (Dense.AllSourcesBits) across `workers` goroutines
// (GOMAXPROCS when workers <= 0); the result does not depend on
// workers. It returns -1 for a disconnected graph. For vertex-transitive
// graphs prefer Eccentricity from any single vertex. Non-Dense graphs
// are materialised first; pass the Dense directly to avoid rebuilding
// per call.
func Diameter(g Graph, workers int) int {
	d, ok := g.(*Dense)
	if !ok {
		d = Build(g)
	}
	if d.Order() == 0 {
		return 0
	}
	sweep := d.AllSourcesBits(nil, workers)
	if !sweep.Complete {
		return -1
	}
	diam := int32(0)
	for _, e := range sweep.Ecc {
		if e > diam {
			diam = e
		}
	}
	return int(diam)
}

// IsConnected reports whether g is connected after removing the excluded
// vertices. A graph whose non-excluded vertex set is empty is connected.
func IsConnected(g Graph, excluded []bool) bool {
	n := g.Order()
	src := -1
	remaining := 0
	for v := 0; v < n; v++ {
		if excluded == nil || !excluded[v] {
			remaining++
			if src == -1 {
				src = v
			}
		}
	}
	if remaining <= 1 {
		return true
	}
	if d, ok := g.(*Dense); ok {
		s := NewScratch(n)
		d.BFSScratch(src, excluded, s)
		return s.Reached() == remaining
	}
	dist := BFSReference(g, src, excluded)
	reached := 0
	for v := 0; v < n; v++ {
		if (excluded == nil || !excluded[v]) && dist[v] != Unreachable {
			reached++
		}
	}
	return reached == remaining
}
