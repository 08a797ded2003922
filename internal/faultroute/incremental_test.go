package faultroute

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// checkPath asserts p is a real u-v walk avoiding r's faults.
func checkPath(t *testing.T, hb *core.HyperButterfly, r *Router, u, v core.Node, p []core.Node) {
	t.Helper()
	if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
		t.Fatalf("path %v does not run %d -> %d", p, u, v)
	}
	dense := hb.Dense()
	for i := 1; i < len(p); i++ {
		if !dense.HasEdge(p[i-1], p[i]) {
			t.Fatalf("path %v uses non-edge %d-%d", p, p[i-1], p[i])
		}
	}
	for _, x := range p {
		if r.Faulty(x) {
			t.Fatalf("path %v crosses faulty node %d", p, x)
		}
	}
}

// TestIncrementalMatchesFresh drives one router through a random
// fail/recover trajectory and checks that at every step it behaves like
// a router freshly built with the same fault set: same fault count,
// valid fault-avoiding paths, and agreement on routability.
func TestIncrementalMatchesFresh(t *testing.T) {
	hb := core.MustNew(2, 3)
	rng := rand.New(rand.NewSource(11))
	r, err := New(hb, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := map[core.Node]bool{}
	for step := 0; step < 120; step++ {
		v := rng.Intn(hb.Order())
		if live[v] {
			changed, err := r.Recover(v)
			if err != nil || !changed {
				t.Fatalf("Recover(%d): changed=%v err=%v", v, changed, err)
			}
			delete(live, v)
		} else if len(live) < hb.M()+3 {
			changed, err := r.Fail(v)
			if err != nil || !changed {
				t.Fatalf("Fail(%d): changed=%v err=%v", v, changed, err)
			}
			live[v] = true
		}

		faults := r.FaultList()
		if len(faults) != len(live) {
			t.Fatalf("step %d: FaultCount %d, want %d", step, len(faults), len(live))
		}
		fresh, err := New(hb, faults)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			u, w := rng.Intn(hb.Order()), rng.Intn(hb.Order())
			if u == w || live[u] || live[w] {
				continue
			}
			p, err := r.Route(u, w)
			if err != nil {
				t.Fatalf("step %d: incremental route %d->%d with %d faults: %v", step, u, w, len(faults), err)
			}
			checkPath(t, hb, r, u, w, p)
			if _, err := fresh.Route(u, w); err != nil {
				t.Fatalf("step %d: fresh router disagrees on routability: %v", step, err)
			}
		}
	}
	if !reflect.DeepEqual(r.FaultList(), func() []core.Node {
		out := []core.Node{}
		for v := 0; v < hb.Order(); v++ {
			if live[v] {
				out = append(out, v)
			}
		}
		return out
	}()) {
		t.Error("FaultList drifted from the applied trajectory")
	}
}

// TestFailInvalidatesCachedRoutes locks the cache-correctness property:
// a route cached before Fail(v) must never be served once v lies on it.
func TestFailInvalidatesCachedRoutes(t *testing.T) {
	hb := core.MustNew(2, 3)
	r, err := New(hb, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, v := core.Node(0), core.Node(95)
	p1, err := r.Route(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) < 3 {
		t.Fatalf("need an interior node, got %v", p1)
	}
	mid := p1[len(p1)/2]
	if _, err := r.Fail(mid); err != nil {
		t.Fatal(err)
	}
	p2, err := r.Route(u, v)
	if err != nil {
		t.Fatalf("route after failing %d: %v", mid, err)
	}
	checkPath(t, hb, r, u, v, p2)

	// Recovery must restore the optimal route (non-optimal entries are
	// invalidated, so the ladder re-runs and finds the shortest path).
	if _, err := r.Recover(mid); err != nil {
		t.Fatal(err)
	}
	p3, err := r.Route(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if r.LastStrategy() != "optimal" {
		t.Errorf("strategy %q after full recovery, want optimal", r.LastStrategy())
	}
	if len(p3) != len(p1) {
		t.Errorf("recovered route has length %d, optimal is %d", len(p3), len(p1))
	}
}

// TestSetFaultsDiffs checks SetFaults lands on exactly the requested
// set regardless of the starting point.
func TestSetFaultsDiffs(t *testing.T) {
	hb := core.MustNew(2, 3)
	r, err := New(hb, []core.Node{3, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetFaults([]core.Node{7, 20, 20, 40}); err != nil {
		t.Fatal(err)
	}
	if got := r.FaultList(); !reflect.DeepEqual(got, []core.Node{7, 20, 40}) {
		t.Errorf("FaultList = %v, want [7 20 40]", got)
	}
	if r.FaultCount() != 3 {
		t.Errorf("FaultCount = %d", r.FaultCount())
	}
	if err := r.SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	if r.FaultCount() != 0 || len(r.FaultList()) != 0 {
		t.Errorf("non-empty set after SetFaults(nil): %v", r.FaultList())
	}
	if err := r.SetFaults([]core.Node{hb.Order()}); err == nil {
		t.Error("out-of-range fault accepted")
	}
}

// TestRouterConcurrent exercises concurrent Route/Fail/Recover under
// -race: queries must always see a consistent fault set and never a
// path through a node that is faulty for the whole test.
func TestRouterConcurrent(t *testing.T) {
	hb := core.MustNew(2, 3)
	always := core.Node(50) // faulty for the entire run
	r, err := New(hb, []core.Node{always})
	if err != nil {
		t.Fatal(err)
	}
	churn := []core.Node{10, 20, 30, 40}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					if _, err := r.Fail(churn[rng.Intn(len(churn))]); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := r.Recover(churn[rng.Intn(len(churn))]); err != nil {
						t.Error(err)
					}
				default:
					u, v := core.Node(rng.Intn(hb.Order())), core.Node(rng.Intn(hb.Order()))
					if u == v || u == always || v == always {
						continue
					}
					in := func(x core.Node) bool {
						for _, c := range churn {
							if c == x {
								return true
							}
						}
						return false
					}
					if in(u) || in(v) {
						continue
					}
					p, err := r.Route(u, v)
					if err != nil {
						t.Errorf("route %d->%d: %v", u, v, err)
						continue
					}
					for _, x := range p {
						if x == always {
							t.Errorf("path %v crosses permanently-faulty node %d", p, always)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIncrementalPathsMatchFresh drives one router on HB(3,4) through
// fail/recover trajectories over a fixed pool of pairs, so cached routes
// are hit again after the faults under them change, and checks that
// every answer — path and strategy — equals that of a router freshly
// built with the current fault set. Most failures land on a node of a
// cached route or next to a shared destination, so stale entries are
// common. Several seeds, because a stale cached detour shows only on
// some trajectories.
func TestIncrementalPathsMatchFresh(t *testing.T) {
	hb := core.MustNew(3, 4)
	strategies := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		incrementalTrajectory(t, hb, seed, strategies)
	}
	for _, s := range []string{"optimal", "greedy", "disjoint"} {
		if strategies[s] == 0 {
			t.Errorf("trajectories never exercised the %s strategy: %v", s, strategies)
		}
	}
	t.Logf("strategies: %v", strategies)
}

// incrementalTrajectory runs one seeded trajectory for
// TestIncrementalPathsMatchFresh, counting the strategies it sees.
func incrementalTrajectory(t *testing.T, hb *core.HyperButterfly, seed int64, strategies map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r, err := New(hb, nil)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ u, v core.Node }
	// A third of the pairs share one destination whose neighbourhood the
	// trajectory keeps failing, which defeats greedy routing and forces
	// the disjoint-path fallback.
	target := rng.Intn(hb.Order())
	targetNbrs := hb.AppendNeighbors(target, nil)
	pairs := make([]pair, 24)
	for i := range pairs {
		for pairs[i].u == pairs[i].v {
			pairs[i] = pair{rng.Intn(hb.Order()), rng.Intn(hb.Order())}
			if i < len(pairs)/3 {
				pairs[i].v = target
			}
		}
	}
	var onPath []core.Node // interior nodes of the latest routes
	for step := 0; step < 200; step++ {
		faults := r.FaultList()
		pick := rng.Intn(3)
		switch {
		case len(faults) > 0 && (len(faults) == hb.M()+3 || rng.Intn(3) == 0):
			// Recover away from the target first, so its neighbourhood
			// fills up.
			var far []core.Node
			for _, f := range faults {
				if !slices.Contains(targetNbrs, f) {
					far = append(far, f)
				}
			}
			if len(far) == 0 {
				far = faults
			}
			if _, err := r.Recover(far[rng.Intn(len(far))]); err != nil {
				t.Fatal(err)
			}
		case pick == 0 && len(onPath) > 0:
			if _, err := r.Fail(onPath[rng.Intn(len(onPath))]); err != nil {
				t.Fatal(err)
			}
		case pick == 1:
			if _, err := r.Fail(targetNbrs[rng.Intn(len(targetNbrs))]); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := r.Fail(rng.Intn(hb.Order())); err != nil {
				t.Fatal(err)
			}
		}

		fresh, err := New(hb, r.FaultList())
		if err != nil {
			t.Fatal(err)
		}
		onPath = onPath[:0]
		for _, pr := range pairs {
			if r.Faulty(pr.u) || r.Faulty(pr.v) {
				continue
			}
			got, err := r.Route(pr.u, pr.v)
			if err != nil {
				t.Fatalf("seed %d, step %d: incremental route %d->%d: %v", seed, step, pr.u, pr.v, err)
			}
			want, err := fresh.Route(pr.u, pr.v)
			if err != nil {
				t.Fatalf("seed %d, step %d: fresh route %d->%d: %v", seed, step, pr.u, pr.v, err)
			}
			if !reflect.DeepEqual(got, want) || r.LastStrategy() != fresh.LastStrategy() {
				t.Fatalf("seed %d, step %d, faults %v, %d->%d: incremental %v (%s), fresh %v (%s)",
					seed, step, r.FaultList(), pr.u, pr.v, got, r.LastStrategy(), want, fresh.LastStrategy())
			}
			strategies[r.LastStrategy()]++
			onPath = append(onPath, got[1:len(got)-1]...)
		}
	}
}
