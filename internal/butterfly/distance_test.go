package butterfly

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitvec"
)

// The oracle: the planner as an O(n) scan over every counter-clockwise
// extent beta, and the route as its move sequence applied generator by
// generator. planWalk and AppendWalk must reproduce both exactly.

// scanPlan describes an optimal covering walk as the scan finds it.
type scanPlan struct {
	full      bool // traverse the entire ring
	clockwise bool // full case: initial overshoot direction
	alpha     int  // arc case: clockwise extent (edges)
	beta      int  // arc case: counter-clockwise extent (edges)
	e         int  // arc case: signed destination offset, -beta <= e <= alpha
}

// planWalkScan is planWalk by scanning every beta in [0, n): for a fixed
// beta only the smallest alpha covering the required edges and (if
// larger) the smallest alpha admitting the clockwise destination can be
// optimal.
func planWalkScan(n int, req uint64, cw int) (int, scanPlan) {
	ccw := 0
	if cw != 0 {
		ccw = n - cw
	}
	best := n + cw
	plan := scanPlan{full: true, clockwise: true}
	if ccw < cw {
		best = n + ccw
		plan.clockwise = false
	}
	for beta := 0; beta < n; beta++ {
		ccwMask := bitvec.Mask(beta) << uint(n-beta)
		minAlpha := bits.Len64(req &^ ccwMask)
		for _, alpha := range [2]int{minAlpha, cw} {
			if alpha < minAlpha || alpha+beta > n-1 {
				continue
			}
			if cw <= alpha {
				if cost := 2*(alpha+beta) - cw; cost < best {
					best = cost
					plan = scanPlan{alpha: alpha, beta: beta, e: cw}
				}
			}
			if ccw <= beta {
				if cost := 2*(alpha+beta) - ccw; cost < best {
					best = cost
					plan = scanPlan{alpha: alpha, beta: beta, e: -ccw}
				}
			}
		}
	}
	return best, plan
}

// runs returns the plan's three constant-direction runs as
// {direction, step count}.
func (p scanPlan) runs(n, cw int) [3][2]int {
	switch {
	case p.full && p.clockwise:
		return [3][2]int{{+1, cw}, {-1, n}, {+1, 0}}
	case p.full:
		return [3][2]int{{-1, n - cw}, {+1, n}, {-1, 0}}
	case p.e >= 0:
		// Counter-clockwise first: to -beta, up to alpha, back to e.
		return [3][2]int{{-1, p.beta}, {+1, p.alpha + p.beta}, {-1, p.alpha - p.e}}
	default:
		return [3][2]int{{+1, p.alpha}, {-1, p.alpha + p.beta}, {+1, p.e + p.beta}}
	}
}

// walk packs the plan's runs as a Walk. The packing is injective on the
// scan's plans: a full-ring plan has a middle run of n steps and an arc
// plan one of alpha+beta <= n-1, and for an arc the first run's
// direction is the sign of e while the counts give back alpha and beta.
func (p scanPlan) walk(n, cw int) Walk {
	r := p.runs(n, cw)
	w := Walk(r[0][1] | r[1][1]<<8 | r[2][1]<<16)
	if r[0][0] > 0 {
		w |= walkCW
	}
	return w
}

// oracleGenerators expands the scan's plan one generator at a time.
func (b *Butterfly) oracleGenerators(u, v Node) []int {
	piU, maskU := b.Split(u)
	piV, maskV := b.Split(v)
	cw := (piV - piU + b.n) % b.n
	_, plan := planWalkScan(b.n, bitvec.RotR(maskU^maskV, b.n, piU), cw)
	var gens []int
	cur := u
	for _, r := range plan.runs(b.n, cw) {
		for i := 0; i < r[1]; i++ {
			pi, mask := b.Split(cur)
			var gen int
			if r[0] > 0 {
				gen = GenG
				if (mask^maskV)&(1<<uint(pi)) != 0 {
					gen = GenF
				}
			} else {
				gen = GenGInv
				prev := (pi + b.n - 1) % b.n
				if (mask^maskV)&(1<<uint(prev)) != 0 {
					gen = GenFInv
				}
			}
			gens = append(gens, gen)
			cur = b.Apply(gen, cur)
		}
	}
	return gens
}

// oracleRoute applies the oracle's generators from u.
func (b *Butterfly) oracleRoute(u, v Node) []Node {
	path := []Node{u}
	cur := u
	for _, g := range b.oracleGenerators(u, v) {
		cur = b.Apply(g, cur)
		path = append(path, cur)
	}
	if cur != v {
		panic(fmt.Sprintf("butterfly: oracle route from %d ended at %d, want %d", u, cur, v))
	}
	return path
}

// checkPlan compares planWalk with the scan on one input.
func checkPlan(t *testing.T, n int, req uint64, cw int) {
	t.Helper()
	d, w := planWalk(n, req, cw)
	wantD, wantPlan := planWalkScan(n, req, cw)
	if want := wantPlan.walk(n, cw); d != wantD || w != want {
		t.Fatalf("n=%d req=%#x cw=%d: planWalk = (%d, %#x), scan = (%d, %#x %+v)",
			n, req, cw, d, uint32(w), wantD, uint32(want), wantPlan)
	}
	if steps := int(w&0xff + w>>8&0xff + w>>16&0xff); steps != d {
		t.Fatalf("n=%d req=%#x cw=%d: walk %#x has %d steps, distance %d", n, req, cw, uint32(w), steps, d)
	}
}

// TestPlanWalkMatchesScan: the run-range planner returns the scan's
// exact distance and plan for every required-edge set and every
// destination level, n = 3..14.
func TestPlanWalkMatchesScan(t *testing.T) {
	for n := 3; n <= 14; n++ {
		for req := uint64(0); req < 1<<uint(n); req++ {
			for cw := 0; cw < n; cw++ {
				checkPlan(t, n, req, cw)
			}
		}
	}
}

// TestRoutesMatchOracle: Route, AppendRoute and RouteGenerators are
// identical to the oracle's Apply-based expansion on every pair of
// B_3..B_7.
func TestRoutesMatchOracle(t *testing.T) {
	for n := 3; n <= 7; n++ {
		b := MustNew(n)
		buf := make([]Node, 0, 3*n)
		for u := 0; u < b.Order(); u++ {
			for v := 0; v < b.Order(); v++ {
				want := b.oracleRoute(u, v)
				if got := b.Route(u, v); !slices.Equal(got, want) {
					t.Fatalf("n=%d: Route(%d,%d) = %v, oracle %v", n, u, v, got, want)
				}
				if got := b.AppendRoute(u, v, buf[:0]); !slices.Equal(got, want) {
					t.Fatalf("n=%d: AppendRoute(%d,%d) = %v, oracle %v", n, u, v, got, want)
				}
				if got, want := b.RouteGenerators(u, v), b.oracleGenerators(u, v); !slices.Equal(got, want) {
					t.Fatalf("n=%d: RouteGenerators(%d,%d) = %v, oracle %v", n, u, v, got, want)
				}
			}
		}
	}
}

// FuzzPlanWalk extends the exhaustive planner check to every dimension
// up to MaxDim.
func FuzzPlanWalk(f *testing.F) {
	f.Add(uint8(8), uint64(0xa5), uint8(3))
	f.Add(uint8(24), uint64(0x800001), uint8(0))
	f.Add(uint8(17), uint64(0x1ffff), uint8(16))
	f.Fuzz(func(t *testing.T, dim uint8, req uint64, cw uint8) {
		n := 3 + int(dim)%(MaxDim-2)
		checkPlan(t, n, req&bitvec.Mask(n), int(cw)%n)
	})
}

// TestPlanTableMatchesPlanWalk: every plan table entry, for every n up
// to the cap, unpacks to planWalk's distance and walk for its (req, cw).
func TestPlanTableMatchesPlanWalk(t *testing.T) {
	for n := 3; n <= planTableMaxDim; n++ {
		tab := planTable(n)
		if len(tab) != n<<uint(n) {
			t.Fatalf("n=%d: table has %d entries, want %d", n, len(tab), n<<uint(n))
		}
		for cw := 0; cw < n; cw++ {
			for req := uint64(0); req < 1<<uint(n); req++ {
				e := tab[cw<<uint(n)|int(req)]
				d, w := planWalk(n, req, cw)
				if got, gotW := int(e>>planDistShift), Walk(e&(1<<planDistShift-1)); got != d || gotW != w {
					t.Fatalf("n=%d req=%#x cw=%d: table (%d, %#x), planWalk (%d, %#x)", n, req, cw, got, uint32(gotW), d, uint32(w))
				}
			}
		}
	}
}

// TestPlanKeyMatchesRotR: planKey's rotation is bitvec.RotR's, for
// every dimension up to MaxDim.
func TestPlanKeyMatchesRotR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 3; n <= MaxDim; n++ {
		bf := MustNew(n)
		for k := 0; k < 1000; k++ {
			u, v := rng.Intn(bf.Order()), rng.Intn(bf.Order())
			piU, maskU := bf.Split(u)
			piV, maskV := bf.Split(v)
			req, cw := bf.planKey(u, v)
			if want := bitvec.RotR(maskU^maskV, n, piU); req != want || cw != (piV-piU+n)%n {
				t.Fatalf("n=%d planKey(%d, %d) = (%#x, %d), want (%#x, %d)", n, u, v, req, cw, want, (piV-piU+n)%n)
			}
		}
	}
}

// TestPlanWalkConcurrentFirstUse: goroutines planning on one dimension
// at once share its table, built once, and all read planWalk's plans.
// Run it under -race.
func TestPlanWalkConcurrentFirstUse(t *testing.T) {
	const n = 11
	bf := MustNew(n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				u, v := rng.Intn(bf.Order()), rng.Intn(bf.Order())
				d, w := bf.PlanWalk(u, v)
				req, cw := bf.planKey(u, v)
				if wantD, wantW := planWalk(n, req, cw); d != wantD || w != wantW {
					t.Errorf("PlanWalk(%d, %d) = (%d, %#x), planWalk (%d, %#x)", u, v, d, uint32(w), wantD, uint32(wantW))
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// BenchmarkPlanWalk times the planners on B_8. "scan" and "runs" walk
// every required-edge set and destination level in order; the random
// cases plan a fixed cycle of uniformly random vertex pairs, as a
// served batch does, once through PlanWalk's table ("table") and once
// through planWalk on the same keys ("runs-random").
func BenchmarkPlanWalk(b *testing.B) {
	const n = 8
	for _, bc := range []struct {
		name string
		plan func(n int, req uint64, cw int) int
	}{
		{"scan", func(n int, req uint64, cw int) int { d, _ := planWalkScan(n, req, cw); return d }},
		{"runs", func(n int, req uint64, cw int) int { d, _ := planWalk(n, req, cw); return d }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				k := i & (1<<(n+3) - 1) // 2^8 edge sets x 8 levels
				sink += bc.plan(n, uint64(k>>3), k&7)
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}

	bf := MustNew(n)
	rng := rand.New(rand.NewSource(1))
	const pairs = 1 << 16
	us, vs := make([]Node, pairs), make([]Node, pairs)
	for i := range us {
		us[i], vs[i] = rng.Intn(bf.Order()), rng.Intn(bf.Order())
	}
	b.Run("runs-random", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			req, cw := bf.planKey(us[i&(pairs-1)], vs[i&(pairs-1)])
			d, _ := planWalk(n, req, cw)
			sink += d
		}
		if sink < 0 {
			b.Fatal(sink)
		}
	})
	b.Run("table", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			d, _ := bf.PlanWalk(us[i&(pairs-1)], vs[i&(pairs-1)])
			sink += d
		}
		if sink < 0 {
			b.Fatal(sink)
		}
	})
}

// BenchmarkPlanTableBuild times building one dimension's plan table
// from planWalk: the one-time cost the first PlanWalk on B_n pays.
func BenchmarkPlanTableBuild(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildPlanTable(n)
			}
		})
	}
}
