package noc

import "repro/internal/core"

// VCPolicy chooses the virtual channel for each hop of a packet's path.
// It is called once per hop in order; state carries per-packet routing
// state (e.g. "crossed the dateline") between hops and starts at zero.
type VCPolicy func(hop int, from, to int, state int) (vc int, newState int)

// SingleVC routes everything on virtual channel 0.
func SingleVC(int, int, int, int) (int, int) { return 0, 0 }

// HBDateline returns the deadlock-avoiding policy for HB(m,n) routed by
// the two-phase algorithm of Section 3: hypercube hops (naturally
// ordered by e-cube dimension order) stay on VC 0; butterfly hops start
// on VC 0 per direction and switch to VC 1 after crossing that
// direction's dateline (the level-ring edge between permutation indices
// n-1 and 0). A shortest butterfly walk crosses each direction's
// dateline at most once, so VC 1 never wraps and each direction's
// dependency chain is acyclic. Requires at least 2 VCs.
//
// State layout: bit 0 = crossed the clockwise dateline, bit 1 = crossed
// the counter-clockwise dateline.
func HBDateline(hb *core.HyperButterfly) VCPolicy {
	n := hb.N()
	bf := hb.Butterfly()
	return func(hop, from, to, state int) (int, int) {
		hu, bu := hb.Decode(from)
		hv, bv := hb.Decode(to)
		if bu == bv && hu != hv {
			return 0, state // hypercube hop
		}
		pu, pv := bf.PI(bu), bf.PI(bv)
		if pv == (pu+1)%n { // clockwise (g or f)
			if pu == n-1 {
				state |= 1
			}
			return state & 1, state
		}
		// counter-clockwise (g^-1 or f^-1)
		if pu == 0 {
			state |= 2
		}
		return (state >> 1) & 1, state
	}
}
