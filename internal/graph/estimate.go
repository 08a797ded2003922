package graph

import (
	"math"
	"math/rand"
)

// Sampled estimators for instances where exact sweeps are infeasible.
// On a dense HB(3,4) the bit-parallel engine measures the diameter
// exactly; on an implicit HB(10,10) no engine can visit all ~10^14
// ordered pairs, so these estimators trade exhaustiveness for explicit
// sample counts and confidence statements. Every report carries the
// sample size and the confidence level it was computed at, and the
// property tests hold the intervals to their advertised coverage
// against the exact sweep values on small instances.

// EstConfig parameterises the samplers. The zero value means 4096
// samples at 95% confidence with seed 0.
type EstConfig struct {
	// Samples is the number of random vertex pairs drawn.
	Samples int
	// Confidence in (0,1) for the reported intervals (default 0.95).
	Confidence float64
	// Seed makes runs reproducible.
	Seed int64
	// KnownUpper, when > 0, is a structural upper bound on the diameter
	// (e.g. the Theorem 3 formula) folded into the reported interval.
	KnownUpper int
	// ScanSources, when > 0, additionally computes that many exact
	// one-source eccentricities (each costs Order distance evaluations)
	// whose doubled minimum is a certified diameter upper bound.
	ScanSources int
}

func (cfg *EstConfig) normalize() {
	if cfg.Samples <= 0 {
		cfg.Samples = 4096
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		cfg.Confidence = 0.95
	}
}

// DiameterEstimate brackets the diameter of a graph known only through
// a distance oracle.
type DiameterEstimate struct {
	// Lower is the largest distance seen: max over sampled pairs and
	// scanned eccentricities. Always a certified lower bound.
	Lower int
	// Upper is the best certified upper bound: min(KnownUpper, 2·ecc(s)
	// over scanned sources s), or -1 when neither is available.
	Upper int
	// Samples and ScannedSources record the evidence size.
	Samples        int
	ScannedSources int
	Order          int
}

// EstimateDiameter brackets the diameter of an order-vertex graph via
// its distance oracle. The lower bound is exact over the evidence seen;
// the upper bound comes from the triangle inequality (diam <= 2·ecc(s)
// for every s) and any structural bound the caller supplies.
func EstimateDiameter(order int, dist func(u, v int) int, cfg EstConfig) DiameterEstimate {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	est := DiameterEstimate{Upper: -1, Samples: cfg.Samples, ScannedSources: cfg.ScanSources, Order: order}
	for i := 0; i < cfg.Samples; i++ {
		if d := dist(rng.Intn(order), rng.Intn(order)); d > est.Lower {
			est.Lower = d
		}
	}
	if cfg.KnownUpper > 0 {
		est.Upper = cfg.KnownUpper
	}
	for s := 0; s < cfg.ScanSources; s++ {
		src := rng.Intn(order)
		ecc := 0
		for v := 0; v < order; v++ {
			if d := dist(src, v); d > ecc {
				ecc = d
			}
		}
		if ecc > est.Lower {
			est.Lower = ecc
		}
		if est.Upper < 0 || 2*ecc < est.Upper {
			est.Upper = 2 * ecc
		}
	}
	return est
}

// HistogramEstimate is a sampled distance distribution with
// distribution-free (Hoeffding) confidence intervals.
type HistogramEstimate struct {
	// Counts[d] is the number of sampled ordered pairs at distance d.
	Counts []int64
	// Fractions[d] = Counts[d]/Samples, the point estimate of the pair
	// fraction at distance d.
	Fractions []float64
	// CIHalfWidth is the half-width of the two-sided confidence interval
	// around each fraction: sqrt(ln(2/(1-Confidence)) / (2·Samples)).
	CIHalfWidth float64
	// MeanDistance is the sampled mean with its own half-width MeanCI
	// (Hoeffding over the range [0, MaxDistance]; requires a known range,
	// so MeanCI is 0 unless KnownUpper was supplied).
	MeanDistance float64
	MeanCI       float64
	Samples      int
	Confidence   float64
}

// EstimateDistanceHistogram samples ordered vertex pairs and returns
// the empirical distance distribution. Each per-bucket interval
// [Fractions[d]±CIHalfWidth] contains the true fraction with the
// configured marginal confidence (Hoeffding's inequality, two-sided,
// distribution-free — conservative for small fractions).
func EstimateDistanceHistogram(order int, dist func(u, v int) int, cfg EstConfig) HistogramEstimate {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	est := HistogramEstimate{Samples: cfg.Samples, Confidence: cfg.Confidence}
	var counts []int64
	sum := 0.0
	for i := 0; i < cfg.Samples; i++ {
		d := dist(rng.Intn(order), rng.Intn(order))
		for len(counts) <= d {
			counts = append(counts, 0)
		}
		counts[d]++
		sum += float64(d)
	}
	est.Counts = counts
	est.Fractions = make([]float64, len(counts))
	for d, c := range counts {
		est.Fractions[d] = float64(c) / float64(cfg.Samples)
	}
	delta := 1 - cfg.Confidence
	est.CIHalfWidth = math.Sqrt(math.Log(2/delta) / (2 * float64(cfg.Samples)))
	est.MeanDistance = sum / float64(cfg.Samples)
	if cfg.KnownUpper > 0 {
		est.MeanCI = float64(cfg.KnownUpper) * est.CIHalfWidth
	}
	return est
}
