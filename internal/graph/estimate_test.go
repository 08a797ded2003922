package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The estimator property suite: on instances small enough for the exact
// engines, the sampled bounds must bracket the exact bit-parallel sweep
// values, and the advertised confidence intervals must contain the
// truth at (at least) the configured rate across independent seeds.

func exactHistogram(t *testing.T, d *graph.Dense) (fractions []float64, mean float64, diam int) {
	t.Helper()
	order := d.Order()
	s := graph.NewScratch(order)
	var counts []float64
	total := 0.0
	sum := 0.0
	for u := 0; u < order; u++ {
		dist := d.BFSScratch(u, nil, s)
		for v := 0; v < order; v++ {
			dd := int(dist[v])
			if dd > diam {
				diam = dd
			}
			for len(counts) <= dd {
				counts = append(counts, 0)
			}
			counts[dd]++
			sum += float64(dd)
			total++
		}
	}
	fractions = make([]float64, len(counts))
	for i, c := range counts {
		fractions[i] = c / total
	}
	return fractions, sum / total, diam
}

func TestEstimateDiameterBracketsExact(t *testing.T) {
	for _, inst := range []struct{ m, n int }{{1, 3}, {2, 3}, {2, 4}, {3, 3}} {
		hb := core.MustNew(inst.m, inst.n)
		exact := graph.Diameter(hb.Dense(), 0)
		if exact != hb.DiameterFormula() {
			t.Fatalf("HB(%d,%d): exact diameter %d != formula %d", inst.m, inst.n, exact, hb.DiameterFormula())
		}
		for seed := int64(0); seed < 10; seed++ {
			est := graph.EstimateDiameter(hb.Order(), hb.Distance, graph.EstConfig{
				Samples:     512,
				Seed:        seed,
				KnownUpper:  hb.DiameterFormula(),
				ScanSources: 2,
			})
			if est.Lower > exact || est.Upper < exact {
				t.Fatalf("HB(%d,%d) seed %d: bracket [%d,%d] misses exact diameter %d",
					inst.m, inst.n, seed, est.Lower, est.Upper, exact)
			}
			if est.Samples != 512 || est.ScannedSources != 2 {
				t.Fatalf("estimate lost its evidence counts: %+v", est)
			}
		}
		// With eccentricity scans the lower bound must actually reach the
		// exact diameter on vertex-transitive instances (every ecc equals
		// the diameter), making the bracket tight on this family.
		est := graph.EstimateDiameter(hb.Order(), hb.Distance, graph.EstConfig{
			Samples: 64, Seed: 1, ScanSources: 1,
		})
		if est.Lower != exact {
			t.Errorf("HB(%d,%d): scanned lower bound %d, want exact %d (vertex-transitive)",
				inst.m, inst.n, est.Lower, exact)
		}
	}
}

func TestEstimateHistogramCoverage(t *testing.T) {
	hb := core.MustNew(2, 3)
	fractions, mean, diam := exactHistogram(t, hb.Dense())

	const (
		seeds      = 60
		confidence = 0.9
	)
	misses := 0
	meanMisses := 0
	for seed := int64(0); seed < seeds; seed++ {
		est := graph.EstimateDistanceHistogram(hb.Order(), hb.Distance, graph.EstConfig{
			Samples:    1024,
			Confidence: confidence,
			Seed:       seed,
			KnownUpper: diam,
		})
		if len(est.Fractions) > len(fractions) {
			t.Fatalf("seed %d: sampled distance beyond the exact diameter", seed)
		}
		for d, truth := range fractions {
			got := 0.0
			if d < len(est.Fractions) {
				got = est.Fractions[d]
			}
			if math.Abs(got-truth) > est.CIHalfWidth {
				misses++
				break
			}
		}
		if math.Abs(est.MeanDistance-mean) > est.MeanCI {
			meanMisses++
		}
	}
	// Hoeffding intervals are conservative: per-seed miss probability is
	// at most 1-confidence per bucket; allow the union over buckets to
	// miss at 2x the nominal rate before declaring the intervals broken.
	budget := int(math.Ceil(2 * (1 - confidence) * float64(len(fractions)) * seeds))
	if misses > budget {
		t.Errorf("histogram CIs missed the truth in %d/%d seeds (budget %d)", misses, seeds, budget)
	}
	if meanMisses > int(math.Ceil(2*(1-confidence)*seeds)) {
		t.Errorf("mean CI missed the truth in %d/%d seeds", meanMisses, seeds)
	}
}

// spotCheck summarises randomized Menger probes: each probe asks a
// path backend for `want` vertex-disjoint paths between a random pair
// and verifies the certificate edge by edge against the graph.
type spotCheck struct {
	Pairs, Certified int
	// FirstFailure describes the first probe that could not be
	// certified, empty when Certified == Pairs.
	FirstFailure string
}

// spotCheckConnectivity draws `samples` random distinct pairs of g and
// certifies `want` disjoint paths between each via the supplied path
// oracle.
func spotCheckConnectivity(g graph.Graph, paths func(u, v int) ([][]int, error), want, samples int, seed int64) spotCheck {
	order := g.Order()
	rng := rand.New(rand.NewSource(seed))
	out := spotCheck{Pairs: samples}
	for i := 0; i < samples; i++ {
		u := rng.Intn(order)
		v := rng.Intn(order)
		for v == u {
			v = rng.Intn(order)
		}
		ps, err := paths(u, v)
		if err == nil && len(ps) < want {
			err = fmt.Errorf("got %d paths, want %d", len(ps), want)
		}
		if err == nil {
			err = graph.VerifyDisjointPaths(g, u, v, ps)
		}
		if err != nil {
			if out.FirstFailure == "" {
				out.FirstFailure = fmt.Sprintf("pair (%d,%d): %v", u, v, err)
			}
			continue
		}
		out.Certified++
	}
	return out
}

// TestSpotCheckConnectivityCertifies certifies HB's constructed
// Theorem 5 paths on sampled pairs, and checks that a deficient path
// source is caught.
func TestSpotCheckConnectivityCertifies(t *testing.T) {
	hb := core.MustNew(2, 3)
	res := spotCheckConnectivity(hb, func(u, v int) ([][]int, error) {
		return hb.DisjointPaths(u, v)
	}, hb.ConnectivityFormula(), 40, 7)
	if res.Certified != res.Pairs || res.Pairs != 40 {
		t.Fatalf("certified %d of %d probes (want all 40): %s", res.Certified, res.Pairs, res.FirstFailure)
	}

	// A deliberately deficient oracle must not certify.
	res = spotCheckConnectivity(hb, func(u, v int) ([][]int, error) {
		ps, err := hb.DisjointPaths(u, v)
		if err != nil || len(ps) == 0 {
			return ps, err
		}
		return ps[:len(ps)-1], nil
	}, hb.ConnectivityFormula(), 5, 7)
	if res.Certified != 0 || res.FirstFailure == "" {
		t.Fatalf("deficient oracle certified %d probes", res.Certified)
	}
}
