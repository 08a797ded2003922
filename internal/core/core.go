// Package core implements the hyper-butterfly network HB(m,n), the
// contribution of the paper (Definition 3): the Cartesian product of the
// hypercube H_m and the wrapped butterfly B_n.
//
// Each node carries a two-part label (h; b): an m-bit hypercube-part
// label and a butterfly-part label (a possibly-complemented cyclic
// permutation of n symbols). The m+4 generators are the m hypercube bit
// complementations h_i acting on the first part and the four butterfly
// generators g, f, g^{-1}, f^{-1} acting on the second (Theorem 1: a
// Cayley graph of degree m+4).
//
// Key quantities (all verified against the constructed graph in tests):
//
//	order         n·2^(m+n)                     (Theorem 2)
//	edges         (m+4)·n·2^(m+n-1)             (Theorem 2)
//	diameter      m + ⌊3n/2⌋                    (Theorem 3; see note)
//	connectivity  m + 4                          (Theorem 5, Corollary 1)
//
// Note on the diameter: Theorem 3 states m + ⌈3n/2⌉ but Remark 1 (and
// measurement) gives the wrapped butterfly diameter as ⌊3n/2⌋, so the
// product diameter is m + ⌊3n/2⌋; the two agree for even n, which
// includes every instance the paper evaluates (Figure 2 uses n = 8).
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/butterfly"
	"repro/internal/graph"
	"repro/internal/hypercube"
)

// Node is a hyper-butterfly vertex id in [0, n·2^(m+n)):
// id = h·|B_n| + b.
type Node = int

// HyperButterfly is the network HB(m,n).
type HyperButterfly struct {
	m     int
	cube  *hypercube.Cube
	bf    *butterfly.Butterfly
	bSize int
	// span is the most nodes a shortest route has: diameter + 1.
	span int

	// The product adjacency, built on first use by Dense.
	denseOnce sync.Once
	dense     *graph.Dense
}

// New returns HB(m,n) for 0 <= m <= 30 and 3 <= n <= butterfly.MaxDim.
// m = 0 degenerates to B_n itself, which is occasionally useful in
// experiments; the paper's instances all have m >= 1.
func New(m, n int) (*HyperButterfly, error) {
	cube, err := hypercube.New(m)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bf, err := butterfly.New(n)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &HyperButterfly{m: m, cube: cube, bf: bf, bSize: bf.Order(), span: m + bf.DiameterFormula() + 1}, nil
}

// MustNew is New for known-good dimensions; it panics on error.
func MustNew(m, n int) *HyperButterfly {
	hb, err := New(m, n)
	if err != nil {
		panic(err)
	}
	return hb
}

// M returns the hypercube dimension m.
func (hb *HyperButterfly) M() int { return hb.m }

// N returns the butterfly dimension n.
func (hb *HyperButterfly) N() int { return hb.bf.Dim() }

// Cube returns the hypercube factor H_m.
func (hb *HyperButterfly) Cube() *hypercube.Cube { return hb.cube }

// Butterfly returns the butterfly factor B_n.
func (hb *HyperButterfly) Butterfly() *butterfly.Butterfly { return hb.bf }

// Order returns n·2^(m+n) (Theorem 2).
func (hb *HyperButterfly) Order() int { return hb.cube.Order() * hb.bSize }

// EdgeCountFormula returns (m+4)·n·2^(m+n-1) (Theorem 2).
func (hb *HyperButterfly) EdgeCountFormula() int {
	n := hb.N()
	return (hb.m + 4) * n << uint(hb.m+n-1)
}

// Degree returns m+4, the degree of every node (Theorem 2).
func (hb *HyperButterfly) Degree() int { return hb.m + 4 }

// DiameterFormula returns m + ⌊3n/2⌋, the measured diameter (see the
// package comment for the relation to Theorem 3's statement).
func (hb *HyperButterfly) DiameterFormula() int { return hb.m + hb.bf.DiameterFormula() }

// DiameterFormulaPaper returns m + ⌈3n/2⌉ exactly as printed in
// Theorem 3.
func (hb *HyperButterfly) DiameterFormulaPaper() int { return hb.m + (3*hb.N()+1)/2 }

// ConnectivityFormula returns m+4 (Corollary 1).
func (hb *HyperButterfly) ConnectivityFormula() int { return hb.m + 4 }

// ValidNode reports whether v is a node id of this instance. Long-lived
// callers (cmd/hbnet, the hbd query service) validate untrusted ids with
// this before handing them to Route/Apply, which panic on bad labels.
func (hb *HyperButterfly) ValidNode(v Node) bool { return v >= 0 && v < hb.Order() }

// Encode assembles a node id from a hypercube part h and a butterfly
// part b.
func (hb *HyperButterfly) Encode(h int, b butterfly.Node) Node {
	if h < 0 || h >= hb.cube.Order() || b < 0 || b >= hb.bSize {
		panic(fmt.Sprintf("core: invalid label (h=%d, b=%d) for HB(%d,%d)", h, b, hb.m, hb.N()))
	}
	return h*hb.bSize + b
}

// Decode splits a node id into its hypercube and butterfly parts.
func (hb *HyperButterfly) Decode(v Node) (h int, b butterfly.Node) {
	return v / hb.bSize, v % hb.bSize
}

// Identity returns the identity node (00…0; t_1 t_2 … t_n) of Remark 7.
func (hb *HyperButterfly) Identity() Node { return hb.bf.Identity() }

// Move identifies one of the m+4 generators: the hypercube generators
// h_0..h_{m-1} (Cube true, Index the dimension) or a butterfly generator
// (Cube false, Index one of butterfly.GenG/GenF/GenGInv/GenFInv).
type Move struct {
	Cube  bool
	Index int
}

// cubeMoveNames holds the names of the hypercube generators h0..h29,
// which cover every m <= 30 that New accepts, so rendering a move
// allocates nothing.
var cubeMoveNames = func() (names [30]string) {
	for i := range names {
		names[i] = "h" + strconv.Itoa(i)
	}
	return names
}()

// String renders a move in the paper's notation.
func (mv Move) String() string {
	if !mv.Cube {
		return butterfly.GeneratorNames[mv.Index]
	}
	if mv.Index >= 0 && mv.Index < len(cubeMoveNames) {
		return cubeMoveNames[mv.Index]
	}
	return "h" + strconv.Itoa(mv.Index)
}

// Inverse returns the move undoing mv (the generator set is closed under
// inverse, Remark 3).
func (mv Move) Inverse() Move {
	if mv.Cube {
		return mv
	}
	return Move{Index: butterfly.InverseGen(mv.Index)}
}

// Moves lists all m+4 generators of HB(m,n): first the m hypercube
// generators, then the four butterfly generators, matching the neighbor
// order of AppendNeighbors.
func (hb *HyperButterfly) Moves() []Move {
	out := make([]Move, 0, hb.m+4)
	for i := 0; i < hb.m; i++ {
		out = append(out, Move{Cube: true, Index: i})
	}
	for j := 0; j < butterfly.NumGens; j++ {
		out = append(out, Move{Index: j})
	}
	return out
}

// Apply returns the neighbor of v under mv.
func (hb *HyperButterfly) Apply(mv Move, v Node) Node {
	h, b := hb.Decode(v)
	if mv.Cube {
		if mv.Index < 0 || mv.Index >= hb.m {
			panic(fmt.Sprintf("core: hypercube generator h%d out of range for m=%d", mv.Index, hb.m))
		}
		return hb.Encode(h^(1<<uint(mv.Index)), b)
	}
	return hb.Encode(h, hb.bf.Apply(mv.Index, b))
}

// AppendNeighbors implements graph.Graph: m hypercube neighbors
// followed by 4 butterfly neighbors (Definition 4).
func (hb *HyperButterfly) AppendNeighbors(v int, buf []int) []int {
	h, b := hb.Decode(v)
	for i := 0; i < hb.m; i++ {
		buf = append(buf, hb.Encode(h^(1<<uint(i)), b))
	}
	base := h * hb.bSize
	buf = append(buf,
		base+hb.bf.Apply(butterfly.GenG, b),
		base+hb.bf.Apply(butterfly.GenF, b),
		base+hb.bf.Apply(butterfly.GenGInv, b),
		base+hb.bf.Apply(butterfly.GenFInv, b),
	)
	return buf
}

// VertexLabel renders v as "(x_{m-1}…x_0; symbols)".
func (hb *HyperButterfly) VertexLabel(v Node) string {
	h, b := hb.Decode(v)
	return "(" + bitvec.String(uint64(h), hb.m) + "; " + hb.bf.VertexLabel(b) + ")"
}

// Distance returns the shortest-path distance between u and v: the sum
// of the Hamming distance of the hypercube parts and the butterfly
// distance of the butterfly parts (Remark 8).
func (hb *HyperButterfly) Distance(u, v Node) int {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	return hb.cube.Distance(hu, hv) + hb.bf.Distance(bu, bv)
}

// RouteMoves returns the generator sequence of a shortest u-v path,
// following Section 3: first correct the hypercube part within the
// sub-hypercube (H_m, b), then route the butterfly part within the
// sub-butterfly (h', B_n).
func (hb *HyperButterfly) RouteMoves(u, v Node) []Move {
	// A route has at most m + ⌊3n/2⌋ + 1 nodes, so it fits on the stack.
	var nodes [30 + 3*butterfly.MaxDim/2 + 1]Node
	path := nodes[:hb.writeRoute(u, v, nodes[:])+1]
	hu, _ := hb.Decode(u)
	hv, bv := hb.Decode(v)
	moves := make([]Move, 0, len(path)-1)
	for d := uint(hu ^ hv); d != 0; d &= d - 1 {
		moves = append(moves, Move{Cube: true, Index: bits.TrailingZeros(d)})
	}
	base := v - bv // the butterfly walk runs in the sub-butterfly (hv, B_n)
	for i := len(moves) + 1; i < len(path); i++ {
		moves = append(moves, Move{Index: hb.bf.Generator(path[i-1]-base, path[i]-base)})
	}
	return moves
}

// Route returns a shortest path from u to v as a node sequence including
// both endpoints; its length always equals Distance(u,v)+1 (Remark 6).
func (hb *HyperButterfly) Route(u, v Node) []Node {
	moves := hb.RouteMoves(u, v)
	path := make([]Node, 0, len(moves)+1)
	path = append(path, u)
	cur := u
	for _, mv := range moves {
		cur = hb.Apply(mv, cur)
		path = append(path, cur)
	}
	if cur != v {
		panic(fmt.Sprintf("core: route from %d ended at %d, want %d", u, cur, v))
	}
	return path
}

// AppendRoute appends the shortest u-v path Route returns (both
// endpoints included) to buf, allocation-free when buf has room for a
// route of diameter length. This is the routing primitive the hbd
// service and the giant-instance smoke tests run at HB(10,10) scale.
func (hb *HyperButterfly) AppendRoute(u, v Node, buf []Node) []Node {
	if !hb.ValidNode(u) || !hb.ValidNode(v) {
		panic(fmt.Sprintf("core: AppendRoute endpoints %d,%d out of range [0,%d)", u, v, hb.Order()))
	}
	at := len(buf)
	buf = slices.Grow(buf, hb.span)
	d := hb.writeRoute(u, v, buf[at:at+hb.span])
	return buf[:at+d+1]
}

// writeRoute is the one per-pair routing routine: it decodes u and v
// once, reads the butterfly plan once, writes the route into seg by
// index — u, the hypercube part corrected lowest dimension first, then
// the butterfly walk — and returns the distance, one less than the
// node count written. u and v must be valid; a seg too short for the
// route panics with an index error rather than writing past it.
func (hb *HyperButterfly) writeRoute(u, v Node, seg []Node) int {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	bd, walk := hb.bf.PlanWalk(bu, bv)
	seg[0] = u
	k := 1
	h := hu
	for d := hu ^ hv; d != 0; d &= d - 1 {
		h ^= d & -d
		seg[k] = h*hb.bSize + bu
		k++
	}
	hb.bf.WriteWalk(bu, bv, walk, v-bv, seg[k:k+bd])
	return k - 1 + bd
}
