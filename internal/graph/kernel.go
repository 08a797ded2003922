package graph

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// This file is the flat-CSR single-source BFS kernel behind every
// distance query that needs a full per-vertex distance array
// (conformance checks, path verification, connectivity probes). It
// operates directly on the Dense offset/adjacency arrays — no Graph
// interface dispatch, no per-vertex neighbor copying — and switches
// between conventional top-down expansion and Beamer-style bottom-up
// "pull" steps. All per-BFS state lives in a Scratch that callers
// reuse, so repeated queries perform zero steady-state allocations.
// (Aggregate all-sources queries — diameter, distance histogram, fault
// diameter — go through the 64-way bit-parallel engine in
// bitparallel.go instead.)
//
// Three departures from the textbook formulation keep the constant
// factor low on the regular, modest-degree graphs of this repository:
//
//   - The distance array itself is the visited structure: top-down
//     tests dist[u] == Unreachable (one int32 load) instead of a
//     bitset probe, and excluded vertices are pre-marked with a
//     sentinel so the hot loop never branches on the fault set.
//   - The pull step needs no frontier bitset either: a neighbour is in
//     the frontier iff dist[u] == level-1, one load from the same hot
//     array the push step reads.
//   - The queue is appended to in both directions, so the bottom-up to
//     top-down transition is free, and the pull candidate list starts
//     as a memmove of an iota template and is compacted in place.

// excludedMark is the in-flight dist sentinel for faulty vertices; the
// kernel rewrites it to Unreachable before returning.
const excludedMark = int32(-1)

// Direction-switch thresholds, in the spirit of Beamer–Asanović–
// Patterson (SC'12) but expressed over vertices (the graphs here are
// near-regular, so frontier edge counts are proportional): pull when
// the frontier out-edges exceed the edges still incident to unvisited
// vertices (frontSize > unvisited/bfsAlpha) and the pull pass over the
// candidate list is amortised (frontEdges > n/bfsGamma).
const (
	bfsAlpha = 2
	bfsGamma = 8
)

// Scratch is the reusable state of one in-flight BFS: the distance
// array, the traversal queue, the pull candidate list and the
// summary of the last run (reached count, eccentricity). A Scratch
// grows monotonically to the largest graph it has seen, so reusing one
// across a sweep keeps every BFS allocation-free.
//
// A Scratch is not safe for concurrent use; pooled drivers keep one per
// worker.
type Scratch struct {
	dist  []int32
	queue []int32
	rest  []int32     // pull-step unvisited candidates, compacted per level
	iota  []int32     // 0..n-1 template; memmove-initialises rest
	excl  *bitvec.Set // excluded []bool converted once per call

	n       int // order of the graph of the last run
	reached int
	maxDist int32
}

// NewScratch returns a Scratch pre-sized for graphs of order n (a hint;
// the scratch grows on demand).
func NewScratch(n int) *Scratch {
	s := &Scratch{excl: bitvec.NewSet(0)}
	s.grow(n)
	return s
}

func (s *Scratch) grow(n int) {
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]int32, 0, n)
		s.rest = make([]int32, 0, n)
		s.iota = make([]int32, n)
		for i := range s.iota {
			s.iota[i] = int32(i)
		}
	}
	s.n = n
}

// Dist returns the distance array of the last BFS (aliases scratch
// storage; valid until the next run on this Scratch).
func (s *Scratch) Dist() []int32 { return s.dist[:s.n] }

// Reached returns the number of vertices reached by the last BFS,
// including the source.
func (s *Scratch) Reached() int { return s.reached }

// MaxDist returns the largest finite distance of the last BFS — the
// source's eccentricity within its (fault-free) component.
func (s *Scratch) MaxDist() int { return int(s.maxDist) }

// BFSScratch computes single-source shortest-path distances from src on
// the CSR arrays, reusing s. Faulty vertices (excluded[v] == true) are
// treated as deleted; excluded may be nil. The source must not be
// excluded. The returned slice aliases s and is valid until the next
// run on this Scratch.
func (d *Dense) BFSScratch(src int, excluded []bool, s *Scratch) []int32 {
	var excl *bitvec.Set
	if excluded != nil {
		s.excl.Reset(len(excluded))
		for v, x := range excluded {
			if x {
				s.excl.Add(v)
			}
		}
		excl = s.excl
	}
	d.bfsBits(src, excl, s)
	return s.Dist()
}

// EccentricityScratch returns the eccentricity of src and whether the
// whole graph was reached, reusing s.
func (d *Dense) EccentricityScratch(src int, s *Scratch) (ecc int, connected bool) {
	d.bfsBits(src, nil, s)
	return s.MaxDist(), s.reached == d.Order()
}

// bfsBits is the direction-optimizing kernel. excl (may be nil) is the
// bit-packed fault set; it is only read. Results land in s (dist,
// reached, maxDist).
func (d *Dense) bfsBits(src int, excl *bitvec.Set, s *Scratch) {
	n := len(d.offsets) - 1
	s.grow(n)
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = Unreachable
	}
	s.reached = 0
	s.maxDist = 0
	if n == 0 {
		return
	}
	if src < 0 || src >= n {
		panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", src, n))
	}
	if excl != nil {
		if excl.Has(src) {
			panic(fmt.Sprintf("graph: BFS source %d is excluded", src))
		}
		// Sentinel-mark faults so the hot loops treat them as visited.
		for _, f := range excl.AppendIndices(s.queue[:0]) {
			dist[f] = excludedMark
		}
	}
	dist[src] = 0
	s.reached = 1

	queue := append(s.queue[:0], int32(src))
	qHead := 0 // the current frontier is queue[qHead:len(queue)]
	adj, offs := d.adj, d.offsets
	avgDeg := len(adj)/n + 1
	rest := s.rest[:0] // unvisited candidates; valid only while pulling
	restValid := false
	var level int32

	for qHead < len(queue) {
		s.maxDist = level
		level++
		qTail := len(queue)
		frontSize := qTail - qHead
		unvisited := n - s.reached
		if frontSize > unvisited/bfsAlpha && frontSize*avgDeg > n/bfsGamma {
			// Pull step: each still-unvisited vertex scans its own row
			// for a parent in the current frontier. Membership needs no
			// frontier bitset: u is in the frontier iff dist[u] == prev,
			// one load from the same hot array the push step reads. The
			// candidate list starts as a memmove of the iota template on
			// the first pull and is compacted in place per level;
			// vertices visited by intervening push levels are skipped
			// via one dist load, so the list never needs rebuilding.
			prev := level - 1
			if !restValid {
				rest = rest[:n]
				copy(rest, s.iota)
				restValid = true
			}
			kept := rest[:0]
			for _, v := range rest {
				if dist[v] != Unreachable {
					continue
				}
				end := offs[v+1]
				found := false
				for j := offs[v]; j < end; j++ {
					if dist[adj[j]] == prev {
						found = true
						break
					}
				}
				if found {
					dist[v] = level
					queue = append(queue, v)
				} else {
					kept = append(kept, v)
				}
			}
			rest = kept
		} else {
			// Push step: expand the queue segment of the current level.
			for i := qHead; i < qTail; i++ {
				v := queue[i]
				end := offs[v+1]
				for j := offs[v]; j < end; j++ {
					u := adj[j]
					if dist[u] == Unreachable {
						dist[u] = level
						queue = append(queue, u)
					}
				}
			}
		}
		qHead = qTail
		s.reached += len(queue) - qTail
	}
	s.queue = queue[:0]
	s.rest = rest[:0]

	if excl != nil {
		// Restore the public contract: excluded vertices report
		// Unreachable, exactly as if they had been deleted.
		for wi, w := range excl.Words() {
			base := wi << 6
			for w != 0 {
				dist[base+bits.TrailingZeros64(w)] = Unreachable
				w &= w - 1
			}
		}
	}
}
