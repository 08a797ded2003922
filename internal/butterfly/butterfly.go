// Package butterfly implements the wrapped butterfly network B_n in the
// Cayley representation of Vadapalli & Srimani (TPDS 1996) used by the
// paper (Section 2.1): each node is a cyclic permutation of n symbols
// t_1..t_n in lexicographic order, each symbol possibly complemented, and
// the four generators are
//
//	g  (a_1 a_2 … a_n) = a_2 a_3 … a_n a_1      (left shift)
//	f  (a_1 a_2 … a_n) = a_2 a_3 … a_n a_1'     (left shift, complement)
//	g' (a_1 a_2 … a_n) = a_n  a_1 … a_{n-1}     (right shift)
//	f' (a_1 a_2 … a_n) = a_n' a_1 … a_{n-1}     (right shift, complement)
//
// A node is stored as (PI, mask): PI in [0,n) is the permutation index of
// Definition 1 (number of left shifts from the identity permutation) and
// mask is the set of complemented symbols, bit k-1 for symbol t_k. The
// package also provides the classical <word, level> representation and
// the isomorphism between the two (Remark 2).
package butterfly

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// Node is a butterfly vertex id in [0, n·2^n): id = PI·2^n + mask.
type Node = int

// Butterfly is the wrapped butterfly B_n, n >= 3.
type Butterfly struct {
	n    int
	size int // n * 2^n

	// The adjacency the flow-based algorithms run on, built on first use
	// by Dense.
	denseOnce sync.Once
	dense     *graph.Dense
}

// MaxDim bounds n so that node ids and dense adjacency stay comfortable;
// B_20 already has 20,971,520 vertices.
const MaxDim = 24

// New returns B_n. The paper (and the underlying Cayley construction)
// requires n >= 3: for n <= 2 the four generators do not yield four
// distinct neighbors.
func New(n int) (*Butterfly, error) {
	if n < 3 || n > MaxDim {
		return nil, fmt.Errorf("butterfly: dimension %d out of range [3,%d]", n, MaxDim)
	}
	return &Butterfly{n: n, size: n << uint(n)}, nil
}

// MustNew is New for known-good dimensions; it panics on error.
func MustNew(n int) *Butterfly {
	b, err := New(n)
	if err != nil {
		panic(err)
	}
	return b
}

// Dim returns n.
func (b *Butterfly) Dim() int { return b.n }

// Order returns n·2^n (Remark 1).
func (b *Butterfly) Order() int { return b.size }

// EdgeCountFormula returns n·2^(n+1) (Remark 1).
func (b *Butterfly) EdgeCountFormula() int { return b.n << uint(b.n+1) }

// Degree returns 4: B_n is 4-regular.
func (b *Butterfly) Degree() int { return 4 }

// DiameterFormula returns ⌊3n/2⌋, the diameter of B_n (Remark 1).
func (b *Butterfly) DiameterFormula() int { return 3 * b.n / 2 }

// ConnectivityFormula returns 4, the vertex connectivity of B_n (Remark 1).
func (b *Butterfly) ConnectivityFormula() int { return 4 }

// NodeOf assembles a node id from a permutation index pi in [0,n) and a
// complement mask over symbols (bit k-1 set iff symbol t_k complemented).
func (b *Butterfly) NodeOf(pi int, mask uint64) Node {
	if pi < 0 || pi >= b.n || mask >= 1<<uint(b.n) {
		panic(fmt.Sprintf("butterfly: invalid (pi=%d, mask=%#x) for B_%d", pi, mask, b.n))
	}
	return pi<<uint(b.n) | int(mask)
}

// Split decomposes a node id into (pi, mask).
func (b *Butterfly) Split(v Node) (pi int, mask uint64) {
	return v >> uint(b.n), uint64(v) & (1<<uint(b.n) - 1)
}

// PI returns the permutation index of v (Definition 1).
func (b *Butterfly) PI(v Node) int { pi, _ := b.Split(v); return pi }

// CI returns the complementation index of v (Definition 2): bit i-1 of
// the result is set iff the symbol at position i of v's label is
// complemented. Position i (1-based) of a node with permutation index pi
// holds symbol t_{((pi+i-1) mod n)+1}, so CI is a rotation of the
// symbol-indexed mask.
func (b *Butterfly) CI(v Node) uint64 {
	pi, mask := b.Split(v)
	return bitvec.RotR(mask, b.n, pi)
}

// Identity returns the identity node: permutation t_1 t_2 … t_n with no
// complemented symbols (PI = 0, CI = 0).
func (b *Butterfly) Identity() Node { return 0 }

// Generator indices in the neighbor order emitted by AppendNeighbors.
const (
	GenG    = iota // g: left shift
	GenF           // f: left shift + complement
	GenGInv        // g^{-1}: right shift
	GenFInv        // f^{-1}: right shift + complement
	NumGens
)

// GeneratorNames maps generator indices to the paper's notation.
var GeneratorNames = [NumGens]string{"g", "f", "g-1", "f-1"}

// Apply returns the neighbor of v under the given generator.
//
// In (pi, mask) coordinates a left shift increments pi; the symbol moved
// from the front to the back is t_{pi+1} (bit pi of the mask), which f
// complements. A right shift decrements pi; the symbol moved to the
// front is t_{pi} (bit pi-1 mod n), which f^{-1} complements.
func (b *Butterfly) Apply(gen int, v Node) Node {
	pi, mask := b.Split(v)
	n := b.n
	switch gen {
	case GenG:
		return b.NodeOf((pi+1)%n, mask)
	case GenF:
		return b.NodeOf((pi+1)%n, mask^(1<<uint(pi)))
	case GenGInv:
		return b.NodeOf((pi+n-1)%n, mask)
	case GenFInv:
		p := (pi + n - 1) % n
		return b.NodeOf(p, mask^(1<<uint(p)))
	default:
		panic(fmt.Sprintf("butterfly: unknown generator %d", gen))
	}
}

// InverseGen returns the generator index that undoes gen.
func InverseGen(gen int) int {
	switch gen {
	case GenG:
		return GenGInv
	case GenGInv:
		return GenG
	case GenF:
		return GenFInv
	case GenFInv:
		return GenF
	}
	panic(fmt.Sprintf("butterfly: unknown generator %d", gen))
}

// AppendNeighbors implements graph.Graph; neighbor order is
// [g, f, g^{-1}, f^{-1}].
func (b *Butterfly) AppendNeighbors(v int, buf []int) []int {
	return append(buf,
		b.Apply(GenG, v), b.Apply(GenF, v), b.Apply(GenGInv, v), b.Apply(GenFInv, v))
}

// VertexLabel renders v as its symbol sequence, e.g. "t3 t1' t2" for a
// node of B_3 with PI=2 and t_1 complemented.
func (b *Butterfly) VertexLabel(v Node) string {
	pi, mask := b.Split(v)
	var sb strings.Builder
	for i := 0; i < b.n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		k := (pi + i) % b.n
		fmt.Fprintf(&sb, "t%d", k+1)
		if bitvec.Bit(mask, k) {
			sb.WriteByte('\'')
		}
	}
	return sb.String()
}

// Classical is the textbook wrapped butterfly of Section 2.1: vertices
// <z, l> with z an n-bit word and l a level in [0,n); <z, l> is adjacent
// to <z, l+1> and <z xor 2^l, l+1> (and the mirror edges from level
// l-1). Vertex id = l·2^n + z.
type Classical struct {
	n int
}

// NewClassical returns the classical representation of B_n.
func NewClassical(n int) (*Classical, error) {
	if n < 3 || n > MaxDim {
		return nil, fmt.Errorf("butterfly: dimension %d out of range [3,%d]", n, MaxDim)
	}
	return &Classical{n: n}, nil
}

// Order returns n·2^n.
func (c *Classical) Order() int { return c.n << uint(c.n) }

// Encode assembles a vertex id from a level and an n-bit word.
func (c *Classical) Encode(level int, word uint64) int {
	return level<<uint(c.n) | int(word)
}

// Decode splits a vertex id into (level, word).
func (c *Classical) Decode(v int) (level int, word uint64) {
	return v >> uint(c.n), uint64(v) & bitvec.Mask(c.n)
}

// AppendNeighbors implements graph.Graph.
func (c *Classical) AppendNeighbors(v int, buf []int) []int {
	l, w := c.Decode(v)
	up := (l + 1) % c.n
	down := (l + c.n - 1) % c.n
	return append(buf,
		c.Encode(up, w),
		c.Encode(up, w^(1<<uint(l))),
		c.Encode(down, w),
		c.Encode(down, w^(1<<uint(down))),
	)
}

// VertexLabel renders v as "<z_1…z_n, l>".
func (c *Classical) VertexLabel(v int) string {
	l, w := c.Decode(v)
	return fmt.Sprintf("<%s, %d>", bitvec.String(w, c.n), l)
}

// FromClassical maps a classical vertex to the Cayley representation.
// The isomorphism of Remark 2 is the identity on (level, word) ->
// (PI, mask): levels become permutation indices and the word becomes the
// complement mask (straight edges map to g/g^{-1}, cross edges to
// f/f^{-1}); tests verify edge preservation exhaustively.
func (b *Butterfly) FromClassical(c *Classical, v int) Node {
	if c.n != b.n {
		panic("butterfly: dimension mismatch in FromClassical")
	}
	l, w := c.Decode(v)
	return b.NodeOf(l, w)
}

// ToClassical maps a Cayley node to the classical representation.
func (b *Butterfly) ToClassical(c *Classical, v Node) int {
	if c.n != b.n {
		panic("butterfly: dimension mismatch in ToClassical")
	}
	pi, mask := b.Split(v)
	return c.Encode(pi, mask)
}
