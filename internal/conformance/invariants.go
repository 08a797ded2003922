package conformance

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/noc"
)

// Env carries per-target shared state across invariant checks: the
// materialised adjacency is built lazily exactly once no matter how
// many invariants (or workers) ask for it.
type Env struct {
	opts  Options
	once  sync.Once
	dense *graph.Dense
	t     *Target
}

// Dense returns the CSR adjacency of the target, built on first use.
func (e *Env) Dense() *graph.Dense {
	e.once.Do(func() { e.dense = graph.Build(e.t.Graph) })
	return e.dense
}

// rng returns a deterministic source for sampling: seeded from the
// target seed and a per-invariant salt, so results are identical for
// any worker count and any execution order.
func (e *Env) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.t.Seed*1000003 + salt))
}

// Invariant is one row of the registry: a named machine-checkable claim
// plus an applicability rule. Applies returns "" when the check is
// meaningful for the target and a human-readable skip reason otherwise.
type Invariant struct {
	Name    string
	Applies func(t *Target, opts Options) string
	Check   func(t *Target, env *Env) error
}

func always(*Target, Options) string { return "" }

// DefaultInvariants returns the registry, in the fixed order reports
// use. The slice is freshly allocated; callers may append their own
// invariants (tests do, to prove failure detection).
func DefaultInvariants() []Invariant {
	return []Invariant{
		{
			// Every topology is an undirected graph: symmetric, in-range
			// adjacency (the precondition of all other checks).
			Name:    "undirected",
			Applies: always,
			Check: func(t *Target, env *Env) error {
				return graph.CheckUndirected(t.Graph)
			},
		},
		{
			// Theorem 2 / Figure 1 degree rows: min, max and regularity.
			Name:    "degree",
			Applies: always,
			Check: func(t *Target, env *Env) error {
				st := graph.Degrees(t.Graph)
				if st.Min != t.MinDegree || st.Max != t.MaxDegree {
					return fmt.Errorf("degrees [%d,%d], want [%d,%d]", st.Min, st.Max, t.MinDegree, t.MaxDegree)
				}
				if st.Regular != t.Regular {
					return fmt.Errorf("regular=%v, want %v", st.Regular, t.Regular)
				}
				return nil
			},
		},
		{
			// Vertex-count formula (Theorem 2: n·2^(m+n) for HB).
			Name:    "order",
			Applies: always,
			Check: func(t *Target, env *Env) error {
				if got := t.Graph.Order(); got != t.Order {
					return fmt.Errorf("order %d, want %d", got, t.Order)
				}
				return nil
			},
		},
		{
			// Edge-count formula (Theorem 2: (m+4)·n·2^(m+n-1) for HB).
			Name: "edge-count",
			Applies: func(t *Target, _ Options) string {
				if t.Edges < 0 {
					return "no closed-form edge count claimed"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				if got := env.Dense().EdgeCount(); got != t.Edges {
					return fmt.Errorf("edge count %d, want %d", got, t.Edges)
				}
				return nil
			},
		},
		{
			// Remark 3: generators are fixed-point-free with pairwise
			// distinct images — the Cayley-graph sanity condition.
			Name: "generator-action",
			Applies: func(t *Target, _ Options) string {
				if !t.Cayley {
					return "not a Cayley graph"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				return graph.VerifyGeneratorAction(t.Graph, t.MaxDegree)
			},
		},
		{
			// Theorem 3: diameter formula vs exhaustive BFS (a single
			// eccentricity suffices on vertex-transitive targets).
			Name: "diameter",
			Applies: func(t *Target, opts Options) string {
				if t.Diameter < 0 {
					return "no diameter claimed"
				}
				if !t.VertexTransitive && t.Order > opts.MaxDiameterOrder {
					return fmt.Sprintf("order %d over all-sources cap %d", t.Order, opts.MaxDiameterOrder)
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				var got int
				if t.VertexTransitive {
					ecc, conn := env.Dense().EccentricityScratch(0, graph.NewScratch(t.Order))
					if !conn {
						return fmt.Errorf("graph disconnected")
					}
					got = ecc
				} else {
					got = graph.Diameter(env.Dense(), 0)
				}
				if got != t.Diameter {
					return fmt.Errorf("diameter %d, want %d", got, t.Diameter)
				}
				return nil
			},
		},
		{
			// Theorem 5 / Corollary 1: vertex connectivity by max-flow
			// ground truth.
			Name: "connectivity",
			Applies: func(t *Target, opts Options) string {
				if t.Connectivity < 0 {
					return "no connectivity claimed"
				}
				if t.Order > opts.MaxConnectivityOrder {
					return fmt.Sprintf("order %d over max-flow cap %d", t.Order, opts.MaxConnectivityOrder)
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				d := env.Dense()
				var got int
				if t.VertexTransitive {
					got = graph.ConnectivityVertexTransitive(d, 0)
				} else {
					got = graph.Connectivity(d, 0)
				}
				if got != t.Connectivity {
					return fmt.Errorf("connectivity %d, want %d", got, t.Connectivity)
				}
				return nil
			},
		},
		{
			// Whitney sandwich: with kappa = delta (Corollary 1 and its
			// analogues) the edge connectivity is pinned to the minimum
			// degree; the parallel Menger engine verifies it exactly.
			Name: "edge-connectivity",
			Applies: func(t *Target, opts Options) string {
				if t.EdgeConnectivity <= 0 {
					return "no edge connectivity claimed"
				}
				if t.Order > opts.MaxConnectivityOrder {
					return fmt.Sprintf("order %d over max-flow cap %d", t.Order, opts.MaxConnectivityOrder)
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				if got := graph.EdgeConnectivity(env.Dense(), 0); got != t.EdgeConnectivity {
					return fmt.Errorf("edge connectivity %d, want %d", got, t.EdgeConnectivity)
				}
				return nil
			},
		},
		{
			// Remark 8: the analytic distance equals BFS distance, checked
			// from a deterministic sample of sources against all targets.
			Name: "distance-vs-bfs",
			Applies: func(t *Target, _ Options) string {
				if t.Distance == nil {
					return "no analytic distance claimed"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				d := env.Dense()
				s := graph.NewScratch(t.Order)
				for _, src := range sampleVertices(t, env.rng(1), 6) {
					dist := d.BFSScratch(src, nil, s)
					for v := 0; v < t.Order; v++ {
						if got := t.Distance(src, v); got != int(dist[v]) {
							return fmt.Errorf("Distance(%d,%d) = %d, BFS %d", src, v, got, dist[v])
						}
					}
				}
				return nil
			},
		},
		{
			// R6: the constructive route is a valid simple path of exactly
			// the BFS length, from sampled sources to every destination.
			// AppendRoute, where the target has one, is held to the same.
			Name: "route-optimal",
			Applies: func(t *Target, _ Options) string {
				if t.Route == nil || !t.RouteOptimal {
					return "no optimal routing claimed"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				d := env.Dense()
				s := graph.NewScratch(t.Order)
				var buf []int
				for _, src := range sampleVertices(t, env.rng(2), 4) {
					dist := d.BFSScratch(src, nil, s)
					for v := 0; v < t.Order; v++ {
						if err := checkShortest("route", t, src, v, int(dist[v]), t.Route(src, v)); err != nil {
							return err
						}
						if t.AppendRoute != nil {
							buf = t.AppendRoute(src, v, buf[:0])
							if err := checkShortest("AppendRoute", t, src, v, int(dist[v]), buf); err != nil {
								return err
							}
						}
					}
				}
				return nil
			},
		},
		{
			// Non-optimal routers (de Bruijn shift routing) still owe a
			// valid bounded walk: right endpoints, real edges, length
			// within the claimed bound.
			Name: "route-bounded",
			Applies: func(t *Target, _ Options) string {
				if t.Route == nil || t.RouteOptimal {
					return "no bounded-only routing claimed"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				d := env.Dense()
				rng := env.rng(3)
				for trial := 0; trial < env.opts.MaxPairs; trial++ {
					u, v := rng.Intn(t.Order), rng.Intn(t.Order)
					p := t.Route(u, v)
					if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
						return fmt.Errorf("route %d->%d has endpoints %v", u, v, p)
					}
					if len(p)-1 > t.RouteBound {
						return fmt.Errorf("route %d->%d length %d exceeds bound %d", u, v, len(p)-1, t.RouteBound)
					}
					for i := 1; i < len(p); i++ {
						if !d.HasEdge(p[i-1], p[i]) {
							return fmt.Errorf("route %d->%d uses non-edge %d-%d", u, v, p[i-1], p[i])
						}
					}
				}
				return nil
			},
		},
		{
			// Theorem 5: the constructive disjoint-path family has exactly
			// the claimed cardinality and verifies against Menger's
			// definition on sampled pairs.
			Name: "disjoint-paths",
			Applies: func(t *Target, _ Options) string {
				if t.DisjointPaths == nil {
					return "no disjoint-path construction claimed"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				rng := env.rng(4)
				for trial := 0; trial < env.opts.MaxPairs; trial++ {
					u, v := distinctPair(rng, t.Order)
					paths, err := t.DisjointPaths(u, v)
					if err != nil {
						return fmt.Errorf("DisjointPaths(%d,%d): %w", u, v, err)
					}
					if len(paths) != t.PathCount {
						return fmt.Errorf("DisjointPaths(%d,%d): %d paths, want %d", u, v, len(paths), t.PathCount)
					}
					if err := graph.VerifyDisjointPaths(t.Graph, u, v, paths); err != nil {
						return fmt.Errorf("DisjointPaths(%d,%d): %w", u, v, err)
					}
				}
				return nil
			},
		},
		{
			// Remark 10: with at most MaxFaults random faults (endpoints
			// excluded) the fault router still delivers a valid fault-free
			// path.
			Name: "fault-route",
			Applies: func(t *Target, _ Options) string {
				if t.FaultRoute == nil {
					return "no fault routing claimed"
				}
				return ""
			},
			Check: func(t *Target, env *Env) error {
				rng := env.rng(5)
				trials := env.opts.MaxPairs / 2
				if trials < 8 {
					trials = 8
				}
				for trial := 0; trial < trials; trial++ {
					u, v := distinctPair(rng, t.Order)
					faulty := make(map[int]bool, t.MaxFaults)
					for len(faulty) < t.MaxFaults {
						f := rng.Intn(t.Order)
						if f != u && f != v {
							faulty[f] = true
						}
					}
					faults := make([]int, 0, len(faulty))
					for f := range faulty {
						faults = append(faults, f)
					}
					p, err := t.FaultRoute(faults, u, v)
					if err != nil {
						return fmt.Errorf("FaultRoute(%d faults, %d->%d): %w", len(faults), u, v, err)
					}
					if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
						return fmt.Errorf("FaultRoute %d->%d has endpoints %v", u, v, p)
					}
					for _, x := range p {
						if faulty[x] {
							return fmt.Errorf("FaultRoute %d->%d crosses faulty node %d", u, v, x)
						}
					}
					if err := graph.VerifyPath(t.Graph, p); err != nil {
						return fmt.Errorf("FaultRoute %d->%d: %w", u, v, err)
					}
				}
				return nil
			},
		},
		{
			// Duato's deadlock-freedom condition for the NoC escape
			// channel: every escape walk reaches its destination climbing
			// strictly in stage, so the channel-dependency graph over
			// (link, class) escape channels has no cycle. Targets without
			// an analytic escape (everything but HB) are held to the
			// generic BFS-tree discipline the engine falls back to.
			Name:    "escape-acyclic",
			Applies: always,
			Check: func(t *Target, env *Env) error {
				esc := t.Escape
				d := env.Dense()
				if esc == nil {
					var err error
					esc, err = noc.NewTreeEscape(d)
					if err != nil {
						return err
					}
				}
				n := d.Order()
				offsets := make([]int64, n+1)
				for v := 0; v < n; v++ {
					offsets[v+1] = offsets[v] + int64(d.Degree(v))
				}
				edgeOf := func(u, w int) (int64, error) {
					for k, x := range d.Neighbors(u) {
						if int(x) == w {
							return offsets[u] + int64(k), nil
						}
					}
					return 0, fmt.Errorf("escape walk uses non-edge %d-%d", u, w)
				}
				var pairs [][2]int
				if n*n <= 4096 {
					for u := 0; u < n; u++ {
						for v := 0; v < n; v++ {
							if u != v {
								pairs = append(pairs, [2]int{u, v})
							}
						}
					}
				} else {
					rng := env.rng(8)
					for len(pairs) < 4096 {
						u, v := distinctPair(rng, n)
						pairs = append(pairs, [2]int{u, v})
					}
				}
				deps := make(map[[2]int64]bool)
				var path []int32
				var cls []int8
				for _, p := range pairs {
					u, v := p[0], p[1]
					path, cls = esc.AppendHops(u, v, path[:0], cls[:0])
					if len(path) == 0 || int(path[len(path)-1]) != v {
						return fmt.Errorf("escape %d->%d ends at %v", u, v, path)
					}
					if len(path) > esc.MaxLen() {
						return fmt.Errorf("escape %d->%d: %d hops exceeds MaxLen %d", u, v, len(path), esc.MaxLen())
					}
					prev, prevStage := u, -1
					var prevCh int64 = -1
					for i, x := range path {
						if cls[i] < 0 || int(cls[i]) >= esc.Classes() {
							return fmt.Errorf("escape %d->%d hop %d: class %d of %d", u, v, i, cls[i], esc.Classes())
						}
						stage := esc.Stage(prev, int(x), cls[i])
						if stage <= prevStage {
							return fmt.Errorf("escape %d->%d hop %d: stage %d after %d — not weight-ordered", u, v, i, stage, prevStage)
						}
						edge, err := edgeOf(prev, int(x))
						if err != nil {
							return err
						}
						ch := edge*int64(esc.Classes()) + int64(cls[i])
						if prevCh >= 0 {
							deps[[2]int64{prevCh, ch}] = true
						}
						prev, prevStage, prevCh = int(x), stage, ch
					}
				}
				// Kahn's algorithm over the recorded dependencies.
				out := make(map[int64][]int64)
				indeg := make(map[int64]int)
				for e := range deps {
					out[e[0]] = append(out[e[0]], e[1])
					if _, ok := indeg[e[0]]; !ok {
						indeg[e[0]] = 0
					}
					indeg[e[1]]++
				}
				queue := make([]int64, 0, len(indeg))
				for ch, dg := range indeg {
					if dg == 0 {
						queue = append(queue, ch)
					}
				}
				seen := 0
				for len(queue) > 0 {
					ch := queue[len(queue)-1]
					queue = queue[:len(queue)-1]
					seen++
					for _, nx := range out[ch] {
						indeg[nx]--
						if indeg[nx] == 0 {
							queue = append(queue, nx)
						}
					}
				}
				if seen != len(indeg) {
					return fmt.Errorf("escape channel-dependency graph has a cycle: %d of %d channels sorted", seen, len(indeg))
				}
				return nil
			},
		},
	}
}

// checkShortest reports whether p is a valid src-v path of exactly dist
// edges on t, naming the router that emitted it.
func checkShortest(router string, t *Target, src, v, dist int, p []int) error {
	if len(p) == 0 || p[0] != src || p[len(p)-1] != v {
		return fmt.Errorf("%s %d->%d has endpoints %v", router, src, v, p)
	}
	if len(p)-1 != dist {
		return fmt.Errorf("%s %d->%d length %d, BFS %d", router, src, v, len(p)-1, dist)
	}
	if src != v {
		if err := graph.VerifyPath(t.Graph, p); err != nil {
			return fmt.Errorf("%s %d->%d: %w", router, src, v, err)
		}
	}
	return nil
}

// sampleVertices returns up to k distinct vertices of t, always
// including 0 and Order-1, padded with deterministic random picks.
func sampleVertices(t *Target, rng *rand.Rand, k int) []int {
	if t.Order <= k {
		out := make([]int, t.Order)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := map[int]bool{0: true, t.Order - 1: true}
	out := []int{0, t.Order - 1}
	for len(out) < k {
		v := rng.Intn(t.Order)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// distinctPair draws u != v uniformly from [0,n). n must be >= 2.
func distinctPair(rng *rand.Rand, n int) (int, int) {
	u := rng.Intn(n)
	v := rng.Intn(n - 1)
	if v >= u {
		v++
	}
	return u, v
}
