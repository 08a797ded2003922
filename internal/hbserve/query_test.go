package hbserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestSingleQueryMatchesOnePairBatch: a GET /route, /paths or
// /faultroute answers exactly what a one-pair /batch answers for the
// same query, for every pair of HB(2,3) and a sample of HB(3,8).
func TestSingleQueryMatchesOnePairBatch(t *testing.T) {
	s := NewServer(Config{})
	h := s.Handler()
	serve := func(req *http.Request) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	batch := func(op string, m, n int, faults []int, u, v int) batchJSONResp {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(jsonBatchBody(t, op, m, n, faults, []int{u}, []int{v})))
		req.Header.Set("Content-Type", ctJSON)
		code, body := serve(req)
		var r batchJSONResp
		if code != 200 {
			t.Fatalf("%s batch %d->%d: status %d: %s", op, u, v, code, body)
		}
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	check := func(m, n int, faults []int, u, v int) {
		t.Helper()
		query := fmt.Sprintf("m=%d&n=%d&u=%d&v=%d", m, n, u, v)

		code, body := serve(httptest.NewRequest(http.MethodGet, "/route?"+query, nil))
		var rr routeResponse
		if code != 200 || json.Unmarshal(body, &rr) != nil {
			t.Fatalf("route %s: status %d: %s", query, code, body)
		}
		b := batch("route", m, n, nil, u, v)
		if b.Status[0] != core.BatchOK || rr.Distance != int(b.Dist[0]) || !reflect.DeepEqual(rr.Path, b.Nodes[b.Off[0]:b.Off[1]]) {
			t.Fatalf("route %s: GET %s, batch %+v", query, body, b)
		}

		code, body = serve(httptest.NewRequest(http.MethodGet, "/paths?"+query, nil))
		b = batch("paths", m, n, nil, u, v)
		if u == v {
			if code != http.StatusBadRequest || b.Status[0] != core.BatchFailed {
				t.Fatalf("paths %s: GET status %d, batch status %d", query, code, b.Status[0])
			}
		} else {
			var pr pathsResponse
			if code != 200 || json.Unmarshal(body, &pr) != nil {
				t.Fatalf("paths %s: status %d: %s", query, code, body)
			}
			var want [][]int
			for q := b.PairOff[0]; q < b.PairOff[1]; q++ {
				want = append(want, b.Nodes[b.PathOff[q]:b.PathOff[q+1]])
			}
			if b.Status[0] != core.BatchOK || pr.Count != len(want) || !reflect.DeepEqual(pr.Paths, want) {
				t.Fatalf("paths %s: GET %s, batch %+v", query, body, b)
			}
		}

		fq := query + "&faults="
		for i, f := range faults {
			if i > 0 {
				fq += ","
			}
			fq += fmt.Sprint(f)
		}
		code, body = serve(httptest.NewRequest(http.MethodGet, "/faultroute?"+fq, nil))
		b = batch("faultroute", m, n, faults, u, v)
		switch {
		case b.Status[0] == core.BatchFailed:
			if code != http.StatusUnprocessableEntity {
				t.Fatalf("faultroute %s: GET status %d for a pair the batch failed: %s", fq, code, body)
			}
		case code != 200:
			t.Fatalf("faultroute %s: status %d: %s", fq, code, body)
		default:
			var fr faultRouteResponse
			if err := json.Unmarshal(body, &fr); err != nil {
				t.Fatal(err)
			}
			if b.Status[0] != core.BatchOK || !reflect.DeepEqual(fr.Path, b.Nodes[b.Off[0]:b.Off[1]]) {
				t.Fatalf("faultroute %s: GET %s, batch %+v", fq, body, b)
			}
		}
	}

	small := core.MustNew(2, 3)
	for u := 0; u < small.Order(); u++ {
		for v := 0; v < small.Order(); v++ {
			check(2, 3, []int{5, 17, 40}, u, v)
		}
	}
	big := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(1))
	faults := []int{rng.Intn(big.Order()), rng.Intn(big.Order()), rng.Intn(big.Order())}
	for i := 0; i < 64; i++ {
		check(3, 8, faults, rng.Intn(big.Order()), rng.Intn(big.Order()))
	}
}
