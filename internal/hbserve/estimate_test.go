package hbserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// renderSweepEstimate renders the exact /estimate body from the
// bit-parallel all-sources sweep, which computes every node's
// eccentricity and the all-pairs histogram without assuming vertex
// transitivity.
func renderSweepEstimate(t *testing.T, hb *core.HyperButterfly) []byte {
	t.Helper()
	sweep := hb.Dense().AllSourcesBits(nil, 0)
	if !sweep.Complete {
		t.Fatalf("HB(%d,%d): sweep incomplete", hb.M(), hb.N())
	}
	var sum, pairs int64
	for d, c := range sweep.Hist {
		if d > 0 {
			sum += int64(d) * c
			pairs += c
		}
	}
	order := int64(hb.Order())
	fractions := make([]float64, len(sweep.Hist))
	for d, c := range sweep.Hist {
		if d > 0 {
			fractions[d] = float64(c) / float64(order*order-order)
		}
	}
	lo, hi := int(slices.Min(sweep.Ecc)), int(slices.Max(sweep.Ecc))
	body, err := marshalBody(exactEstimateResponse{
		M: hb.M(), N: hb.N(), Order: hb.Order(),
		Exact:           true,
		Diameter:        hi,
		DiameterFormula: hb.DiameterFormula(),
		EccMin:          lo,
		EccMax:          hi,
		MeanDistance:    float64(sum) / float64(pairs),
		Hist:            sweep.Hist,
		Fractions:       fractions,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEstimateExact is the differential gate for the exact /estimate:
// on every servable instance up to maxExactOrder nodes, the one-BFS body
// must be byte-identical to the render from the all-sources sweep, and
// the exhaustive diameter must equal Theorem 3's formula.
func TestEstimateExact(t *testing.T) {
	_, ts := newTestServer(t)
	instances := 0
	for n := 3; n<<n <= maxExactOrder; n++ {
		for m := 0; (n<<n)<<m <= maxExactOrder; m++ {
			hb := core.MustNew(m, n)
			want := renderSweepEstimate(t, hb)
			code, body := get(t, fmt.Sprintf("%s/estimate?m=%d&n=%d", ts.URL, m, n))
			if code != 200 {
				t.Fatalf("HB(%d,%d): status %d: %s", m, n, code, body)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("HB(%d,%d): one-BFS body diverges from the all-sources sweep:\n got %s\nwant %s", m, n, body, want)
			}
			var res exactEstimateResponse
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if res.EccMin != res.EccMax || res.EccMax != res.Diameter || res.Diameter != res.DiameterFormula {
				t.Errorf("HB(%d,%d): ecc [%d,%d], diameter %d, formula %d", m, n, res.EccMin, res.EccMax, res.Diameter, res.DiameterFormula)
			}
			instances++
		}
	}
	// HB(0..7,3), HB(0..6,4), HB(0..4,5), HB(0..3,6), HB(0..2,7), HB(0..1,8).
	if instances != 29 {
		t.Fatalf("checked %d instances, want 29", instances)
	}
}

// TestEstimateLiveOverride: live=1 selects the sampled estimator on an
// instance that would answer exactly, and instances above maxExactOrder
// always sample.
func TestEstimateLiveOverride(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/estimate?m=2&n=3&live=1&samples=64",
		"/estimate?m=3&n=8&samples=64", // 16,384 nodes
	} {
		code, body := get(t, ts.URL+path)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["exact"]; ok {
			t.Errorf("%s: sampled answer carries \"exact\": %s", path, body)
		}
		var sampled estimateResponse
		if err := json.Unmarshal(body, &sampled); err != nil {
			t.Fatal(err)
		}
		if sampled.Samples != 64 {
			t.Errorf("%s: answered with %d samples, want the sampled path", path, sampled.Samples)
		}
	}
}
