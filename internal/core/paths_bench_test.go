package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// casePairs returns up to count pairs of hb in Theorem 5 case c, drawn
// from the arithmetic stream (i·40503, i·2654435761+7) mod order. Case 3
// keeps the stream pairs whose label parts both differ; cases 1 and 2
// keep the stream's u and move v into u's layer (case 1) or u's column
// (case 2), since the stream almost never lands in those cases itself.
func casePairs(hb *core.HyperButterfly, c, count int) (src, dst []core.Node) {
	order := hb.Order()
	for i := 0; len(src) < count && i < 64*count; i++ {
		u := i * 40503 % order
		v := (i*2654435761 + 7) % order
		hu, bu := hb.Decode(u)
		hv, bv := hb.Decode(v)
		switch c {
		case 1:
			v = hb.Encode(hv, bu)
		case 2:
			v = hb.Encode(hu, bv)
		case 3:
			if hu == hv || bu == bv {
				continue
			}
		}
		if u != v {
			src, dst = append(src, u), append(dst, v)
		}
	}
	return src, dst
}

// BenchmarkDisjointPaths times one Theorem 5 path set per operation, per
// case, over 256 fixed pairs of HB(3,8) and HB(10,10).
func BenchmarkDisjointPaths(b *testing.B) {
	for _, dims := range [][2]int{{3, 8}, {10, 10}} {
		hb := core.MustNew(dims[0], dims[1])
		for c := 1; c <= 3; c++ {
			src, dst := casePairs(hb, c, 256)
			b.Run(fmt.Sprintf("HB(%d,%d)/case%d", dims[0], dims[1], c), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := i % len(src)
					if _, err := hb.DisjointPaths(src[k], dst[k]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
