package hbserve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// These tests pin the headline serving claim of label arithmetic: a
// cold daemon answers /route, /paths (verified), /faultroute and
// /estimate on HB(10,10) — order 10·2^20 ≈ 10.5M, far above the dense
// cap — without ever materialising an adjacency. Queries stay in the
// label-arithmetic fast path, so the whole file runs in well under a
// second despite the instance size.

const giantOrder = 10 << 20 // HB(10,10)

func giantURL(ts *httptest.Server, path string) string {
	return fmt.Sprintf("%s%s&m=10&n=10", ts.URL, path)
}

func TestImplicitServesGiantRoute(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(10, 10)
	u, v := 12345, giantOrder-678
	code, body := get(t, giantURL(ts, fmt.Sprintf("/route?u=%d&v=%d&verify=1", u, v)))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res routeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verify=1 response not marked verified")
	}
	if want := hb.Distance(u, v); res.Distance != want {
		t.Errorf("distance %d, want %d", res.Distance, want)
	}
	if len(res.Path) != res.Distance+1 || res.Path[0] != u || res.Path[len(res.Path)-1] != v {
		t.Errorf("path endpoints/length wrong: %d vertices for distance %d", len(res.Path), res.Distance)
	}
}

func TestImplicitServesGiantPaths(t *testing.T) {
	_, ts := newTestServer(t)
	u, v := 999, 7_654_321
	code, body := get(t, giantURL(ts, fmt.Sprintf("/paths?u=%d&v=%d&verify=1", u, v)))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res pathsResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("verify=1 response not marked verified")
	}
	if res.Count != 14 { // m+4 (Theorem 5)
		t.Errorf("count %d, want 14", res.Count)
	}
}

func TestImplicitServesGiantFaultRoute(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(10, 10)
	u, v := 0, giantOrder-1
	// Knock out the first hop of the fault-free optimal route; the
	// router must deliver around it.
	direct := hb.Route(u, v)
	code, body := get(t, giantURL(ts, fmt.Sprintf("/faultroute?u=%d&v=%d&faults=%d", u, v, direct[1])))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res faultRouteResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Path) == 0 || res.Path[0] != u || res.Path[len(res.Path)-1] != v {
		t.Fatalf("path endpoints wrong: %v", res.Path)
	}
	for _, x := range res.Path {
		if x == direct[1] {
			t.Errorf("path traverses the faulty vertex %d", direct[1])
		}
	}
	if !res.WithinGuarantee {
		t.Error("1 fault on a 14-connected instance should be within guarantee")
	}
}

func TestImplicitServesGiantEstimate(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, giantURL(ts, "/estimate?samples=512&seed=7"))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res estimateResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	formula := 10 + 3*10/2 // Theorem 3: m + floor(3n/2)
	if res.DiameterFormula != formula {
		t.Errorf("diameter formula %d, want %d", res.DiameterFormula, formula)
	}
	if res.DiameterLower < 1 || res.DiameterLower > formula {
		t.Errorf("sampled lower bound %d outside (0,%d]", res.DiameterLower, formula)
	}
	if res.DiameterUpper != formula {
		t.Errorf("upper bound %d, want the structural bound %d with no scans", res.DiameterUpper, formula)
	}
	if res.Samples != 512 || res.CIHalfWidth <= 0 {
		t.Errorf("samples=%d ci=%g, want explicit evidence fields", res.Samples, res.CIHalfWidth)
	}
	// Exact scans are refused on an instance this size.
	code, _ = get(t, giantURL(ts, "/estimate?samples=64&scan=1"))
	if code != 400 {
		t.Errorf("scan on HB(10,10): status %d, want 400", code)
	}
}

// TestEstimateEndpointSmall cross-checks the sampled /estimate (live=1)
// against the known exact diameter on a small instance, where
// ScanSources certifies the exact value by vertex-transitivity (one
// eccentricity = diameter).
func TestEstimateEndpointSmall(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	code, body := get(t, fmt.Sprintf("%s/estimate?m=2&n=3&live=1&samples=4096&scan=1", ts.URL))
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var res estimateResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	exact := hb.DiameterFormula()
	if res.DiameterLower != exact {
		t.Errorf("scanned lower bound %d, want exact diameter %d", res.DiameterLower, exact)
	}
	if res.DiameterUpper != exact {
		t.Errorf("upper bound %d, want min(formula, 2·ecc) = %d", res.DiameterUpper, exact)
	}
	if res.ScannedSources != 1 {
		t.Errorf("scanned_sources %d, want 1", res.ScannedSources)
	}
	if res.MeanDistance <= 0 || res.MeanCI <= 0 {
		t.Errorf("mean %g ± %g, want positive point estimate and interval", res.MeanDistance, res.MeanCI)
	}
}
