package butterfly

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Shortest-path routing in the wrapped butterfly (the scheme the paper
// cites as [4] and builds HB routing on, Section 3).
//
// Moving from permutation index pi to pi+1 (generators g/f) crosses
// "ring edge" pi of the level ring Z_n and may complement symbol
// t_{pi+1}; moving from pi to pi-1 (g^{-1}/f^{-1}) crosses ring edge
// pi-1 and may complement t_{pi}. Hence a route from u=(pi,mask) to
// v=(pi',mask') is exactly a walk on the ring Z_n from pi to pi' that
// traverses every ring edge k with bit k set in mask^mask' at least once
// (the complement is applied on one traversal of each such edge). The
// shortest route is therefore a minimum-length covering walk on a ring.
//
// Any walk's traversed-edge set is an arc of the ring (or the whole
// ring), so the optimum is found by enumerating:
//
//   - proper arcs reaching alpha edges clockwise and beta edges
//     counter-clockwise from pi (alpha+beta <= n-1) that contain all
//     required edges and the destination; an optimal walk over an arc
//     turns at most once and costs 2(alpha+beta) - |e|, where e is the
//     signed position of pi' in arc coordinates;
//   - the full ring, costing n + min(cw, ccw) where cw = (pi'-pi) mod n.
//
// Tests verify the resulting distances against BFS exhaustively for
// n in 3..6 and by random sampling for larger n, and the plans against
// a scan over every beta exhaustively for n in 3..14.

// Walk is a planned minimum covering walk, packed as three runs of
// level steps in alternating directions: bits 0-7, 8-15 and 16-23 hold
// the runs' step counts, and walkCW marks a first run that goes
// clockwise (+1, a left shift). Its step count is the butterfly
// distance.
type Walk uint32

// walkCW flags a Walk whose first run is clockwise.
const walkCW Walk = 1 << 24

// arcWalk is the walk over the arc reaching alpha edges clockwise and
// beta counter-clockwise that ends at signed offset e: for e >= 0 it
// turns at -beta and at alpha, otherwise at alpha and at -beta.
func arcWalk(alpha, beta, e int) Walk {
	if e >= 0 {
		return Walk(beta | (alpha+beta)<<8 | (alpha-e)<<16)
	}
	return walkCW | Walk(alpha|(alpha+beta)<<8|(e+beta)<<16)
}

// planWalk computes the minimum covering-walk length and a walk
// realizing it. req is the set of required ring edges as offsets from
// the start level: bit k set means ring edge (start+k) mod n must be
// traversed. cw is the clockwise distance to the destination level.
//
// Covered edge offsets for an arc (alpha, beta) are [0, alpha-1] and
// [n-beta, n-1], so the smallest alpha covering what the beta side
// leaves is minAlpha(beta) = bitLen(req below n-beta). minAlpha is
// constant between consecutive required bits, which splits beta's
// range into popcount(req)+1 runs. Within a run every candidate's cost
// grows by 2 per step of beta, so only each candidate kind's first
// admissible beta can be optimal:
//
//	K1: alpha = minAlpha, ending clockwise (cw <= alpha), at the run start;
//	K2: alpha = minAlpha, ending counter-clockwise (ccw <= beta), at max(start, ccw);
//	K3: alpha = cw, ending clockwise (cw >= minAlpha), at the run start.
//
// (alpha = cw ending counter-clockwise never beats K2 at the same beta.)
// Candidates are tried in ascending beta with strict <, so ties resolve
// as in a scan over every beta; K2 and K3 are both admissible at the
// same beta only when cw = 0, where K1 already holds their cost.
func planWalk(n int, req uint64, cw int) (int, Walk) {
	ccw := 0
	if cw != 0 {
		ccw = n - cw
	}
	// Full-ring candidate.
	best, walk := n+cw, walkCW|Walk(cw|n<<8)
	if ccw < cw {
		best, walk = n+ccw, Walk(ccw|n<<8)
	}
	for lo := 0; ; {
		a := bits.Len64(req) // minAlpha over the run starting at beta = lo
		hi := n - 1 - a      // the run's last beta with alpha+beta <= n-1
		if lo <= hi {
			if cost := 2*(a+lo) - cw; cw <= a && cost < best {
				best, walk = cost, arcWalk(a, lo, cw)
			}
			if cost := cw + 2*lo; cw >= a && cw+lo < n && cost < best {
				best, walk = cost, arcWalk(cw, lo, cw)
			}
			if b := max(lo, ccw); b <= hi {
				if cost := 2*(a+b) - ccw; cost < best {
					best, walk = cost, arcWalk(a, b, -ccw)
				}
			}
		}
		if req == 0 {
			return best, walk
		}
		// The next run starts where the top required bit falls to the
		// beta side.
		lo = n - a + 1
		req &^= 1 << uint(a-1)
	}
}

// planTableMaxDim is the largest n whose plans PlanWalk reads from a
// table. B_n is vertex-transitive, so a plan depends only on the
// rotated mask difference req and the level difference cw: n·2^n
// entries, 196 KB at n = 12 and under 0.4 MB for every n up to it
// together. Above the cap planWalk runs per call.
const planTableMaxDim = 12

// planDistShift places the distance above the 25 bits of a Walk in a
// plan table entry; the distance is at most ⌊3n/2⌋ = 18 below the cap.
const planDistShift = 25

// planTables holds one plan table per n, each built by planWalk on
// first use and shared by every Butterfly of that dimension in the
// process. Entry cw<<n | req is planWalk(n, req, cw) packed as
// dist<<planDistShift | walk.
var planTables [planTableMaxDim + 1]struct {
	once sync.Once
	tab  []uint32
}

// planTable returns the plan table of B_n, n <= planTableMaxDim,
// building it on first use.
func planTable(n int) []uint32 {
	pt := &planTables[n]
	pt.once.Do(func() { pt.tab = buildPlanTable(n) })
	return pt.tab
}

// buildPlanTable fills B_n's plan table from planWalk.
func buildPlanTable(n int) []uint32 {
	tab := make([]uint32, n<<uint(n))
	for cw := 0; cw < n; cw++ {
		for req := 0; req < 1<<uint(n); req++ {
			d, w := planWalk(n, uint64(req), cw)
			tab[cw<<uint(n)|req] = uint32(d)<<planDistShift | uint32(w)
		}
	}
	return tab
}

// PlanWalk returns the distance from u to v and the walk Route takes.
// Up to planTableMaxDim it is one table read.
func (b *Butterfly) PlanWalk(u, v Node) (int, Walk) {
	n := b.n
	req, cw := b.planKey(u, v)
	if n <= planTableMaxDim {
		e := planTable(n)[cw<<uint(n)|int(req)]
		return int(e >> planDistShift), Walk(e & (1<<planDistShift - 1))
	}
	return planWalk(n, req, cw)
}

// planKey returns what a u-v plan depends on: the required ring edges
// as offsets from u's level (the mask difference rotated right by that
// level, as bitvec.RotR without its modular reductions) and the
// clockwise level distance.
func (b *Butterfly) planKey(u, v Node) (req uint64, cw int) {
	n := b.n
	piU, maskU := b.Split(u)
	piV, maskV := b.Split(v)
	d := maskU ^ maskV
	req = (d>>uint(piU) | d<<uint(n-piU)) & (1<<uint(n) - 1)
	if cw = piV - piU; cw < 0 {
		cw += n
	}
	return req, cw
}

// Distance returns the shortest-path distance between u and v in B_n.
func (b *Butterfly) Distance(u, v Node) int {
	d, _ := b.PlanWalk(u, v)
	return d
}

// WriteWalk writes base+w for every vertex w strictly after u on walk,
// a plan PlanWalk(u, v) returned, into seg by index: seg[k] is the
// (k+1)-th vertex, and len(seg) must be the walk's step count. Each
// step moves one level along the walk's run and, on crossing a ring
// edge whose symbol still differs from v's, complements it (f or f^{-1}
// rather than g or g^{-1}), so repeated crossings complement at most
// once. The base offset lets product networks (core.HyperButterfly)
// relabel the walk into a sub-butterfly without an intermediate slice.
func (b *Butterfly) WriteWalk(u, v Node, walk Walk, base int, seg []int) {
	n := uint(b.n)
	r0, r1, r2 := uint(walk&0xff), uint(walk>>8&0xff), uint(walk>>16&0xff)
	if r0+r1+r2 != uint(len(seg)) {
		panic(fmt.Sprintf("butterfly: walk %d->%d has %d steps, given %d slots", u, v, r0+r1+r2, len(seg)))
	}
	// One loop over every step, its direction read from a bit mask
	// rather than branched on, so a turn between runs costs no
	// mispredicted loop exit. Bit k of cw is set when step k goes
	// clockwise; a walk has at most ⌊3n/2⌋ < 64 steps. The shifts in
	// the loop are masked to 63 so that they compile without a range
	// check.
	cw := uint64(1<<r1-1) << r0
	if walk&walkCW != 0 {
		cw ^= 1<<(r0+r1+r2) - 1
	}
	pi, mask := b.Split(u)
	_, maskV := b.Split(v)
	for k := range seg {
		c := int(cw & 1)
		cw >>= 1
		e := pi + c - 1 // the ring edge this step crosses
		if e < 0 {
			e += int(n)
		}
		mask ^= (mask ^ maskV) & (1 << (uint(e) & 63))
		if pi = e + c; pi == int(n) {
			pi = 0
		}
		seg[k] = base + (pi<<(n&63) | int(mask))
	}
	if end := pi<<n | int(mask); end != v {
		panic(fmt.Sprintf("butterfly: route from %d ended at %d, want %d", u, end, v))
	}
}

// AppendRoute appends a shortest u-v path (both endpoints included) to
// buf and returns the extended slice. It is the allocation-free
// counterpart of Route: given a buf with sufficient capacity it performs
// no heap allocation, which is what lets label arithmetic route on
// multi-million-node instances at dense-graph speeds.
func (b *Butterfly) AppendRoute(u, v Node, buf []Node) []Node {
	d, walk := b.PlanWalk(u, v)
	at := len(buf)
	buf = slices.Grow(buf, d+1)[:at+d+1]
	buf[at] = u
	b.WriteWalk(u, v, walk, 0, buf[at+1:])
	return buf
}

// Route returns a shortest path from u to v as a node sequence including
// both endpoints; its length always equals Distance(u, v) + 1.
func (b *Butterfly) Route(u, v Node) []Node { return b.AppendRoute(u, v, nil) }

// RouteGenerators returns the generator sequence of Route(u, v).
func (b *Butterfly) RouteGenerators(u, v Node) []int {
	path := b.Route(u, v)
	gens := make([]int, len(path)-1)
	for i := range gens {
		gens[i] = b.Generator(path[i], path[i+1])
	}
	return gens
}

// Generator returns the generator taking u to its neighbour w: a
// clockwise step is g or f, a counter-clockwise one g^{-1} or f^{-1},
// and f/f^{-1} are the steps that complement a symbol.
func (b *Butterfly) Generator(u, w Node) int {
	pi, mask := b.Split(u)
	next, nextMask := b.Split(w)
	gen := GenGInv
	if next == (pi+1)%b.n {
		gen = GenG
	}
	if mask != nextMask {
		gen++ // GenF, GenFInv
	}
	return gen
}
