package noc

import (
	"testing"

	"repro/internal/core"
)

// TestRingDatelineTransitions walks the policy hop by hop around the
// ring: VC 0 strictly before the wrap edge, VC 1 from the wrap onward,
// and the state latches (it never falls back to 0).
func TestRingDatelineTransitions(t *testing.T) {
	const n = 8
	pol := ringDateline(n)
	// Route 5 -> 3 crosses the dateline at hop 2 (7 -> 0).
	path := []int{5, 6, 7, 0, 1, 2, 3}
	state := 0
	for h := 0; h+1 < len(path); h++ {
		var vc int
		vc, state = pol(h, path[h], path[h+1], state)
		wrapped := h >= 2
		want := 0
		if wrapped {
			want = 1
		}
		if vc != want {
			t.Errorf("hop %d (%d->%d): vc %d, want %d", h, path[h], path[h+1], vc, want)
		}
	}
	// A route that never wraps stays on VC 0 for every hop.
	state = 0
	for h, u := range []int{1, 2, 3} {
		vc, ns := pol(h, u, u+1, state)
		if vc != 0 {
			t.Errorf("unwrapped hop %d->%d: vc %d, want 0", u, u+1, vc)
		}
		state = ns
	}
}

// TestHBRouteOrdersCubeFirst: the two-phase route of Section 3 emits
// every hypercube correction before any butterfly move — the ordering
// HBDateline's acyclicity argument relies on (cube hops all ride VC 0
// and come before the level-ring traversal).
func TestHBRouteOrdersCubeFirst(t *testing.T) {
	hb := core.MustNew(2, 4)
	for u := 0; u < hb.Order(); u += 7 {
		for v := 0; v < hb.Order(); v += 5 {
			if u == v {
				continue
			}
			seenButterfly := false
			for i, mv := range hb.RouteMoves(u, v) {
				if !mv.Cube {
					seenButterfly = true
				} else if seenButterfly {
					t.Fatalf("route %d->%d: cube move at position %d after a butterfly move", u, v, i)
				}
			}
		}
	}
}

// TestHBDatelineTransitions traces the policy along concrete routes:
// cube hops stay on VC 0, clockwise butterfly hops ride VC 0 until the
// walk crosses the pi = n-1 -> 0 ring edge and VC 1 after it, and the
// per-direction dateline bits latch independently.
func TestHBDatelineTransitions(t *testing.T) {
	hb := core.MustNew(2, 4)
	pol := HBDateline(hb)
	bf := hb.Butterfly()
	n := hb.N()
	checked, crossed := 0, 0
	for u := 0; u < hb.Order(); u += 3 {
		for v := 0; v < hb.Order(); v += 11 {
			if u == v {
				continue
			}
			path := hb.Route(u, v)
			state := 0
			cw, ccw := false, false
			for h := 0; h+1 < len(path); h++ {
				from, to := path[h], path[h+1]
				var vc int
				vc, state = pol(h, from, to, state)
				_, bu := hb.Decode(from)
				_, bv := hb.Decode(to)
				if bu == bv { // hypercube hop
					if vc != 0 {
						t.Fatalf("route %d->%d hop %d: cube hop on vc %d", u, v, h, vc)
					}
					continue
				}
				pu, pv := bf.PI(bu), bf.PI(bv)
				if pv == (pu+1)%n { // clockwise
					if pu == n-1 {
						cw = true
						crossed++
					}
					want := 0
					if cw {
						want = 1
					}
					if vc != want {
						t.Fatalf("route %d->%d hop %d: cw hop vc %d, want %d (crossed=%v)", u, v, h, vc, want, cw)
					}
				} else { // counter-clockwise
					if pu == 0 {
						ccw = true
					}
					want := 0
					if ccw {
						want = 1
					}
					if vc != want {
						t.Fatalf("route %d->%d hop %d: ccw hop vc %d, want %d (crossed=%v)", u, v, h, vc, want, ccw)
					}
				}
			}
			checked++
		}
	}
	if checked == 0 || crossed == 0 {
		t.Fatalf("fixture too small: %d routes, %d dateline crossings", checked, crossed)
	}
}

// TestSingleVCDeadlocksDatelineSurvives is the paired regression the
// dateline policy exists for: the identical saturating HB load wedges
// on one virtual channel and completes on the dateline discipline.
func TestSingleVCDeadlocksDatelineSurvives(t *testing.T) {
	hb := core.MustNew(2, 3)
	base := oracleConfig{
		Cycles: 3000, Rate: 0.4, PacketLen: 4, BufDepth: 1,
		Route: hb.Route, Seed: 9,
	}
	single := base
	single.VCs, single.Policy = 1, SingleVC
	sres, err := runOracle(hb, single)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Deadlocked {
		t.Fatalf("single VC survived saturating load: %+v", sres)
	}
	dateline := base
	dateline.VCs, dateline.Policy = 2, HBDateline(hb)
	dres, err := runOracle(hb, dateline)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Deadlocked {
		t.Fatalf("dateline deadlocked: %+v", dres)
	}
	if dres.Delivered <= sres.Delivered {
		t.Fatalf("dateline delivered %d <= single-VC %d", dres.Delivered, sres.Delivered)
	}
}
