package hbserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// TestHandleRouteAllocsFlat: with the route cache off, a GET /route on
// HB(3,8) allocates as often for a diameter pair as for a 1-hop pair,
// over a hypercube edge or a butterfly edge: naming the moves and
// rendering the path cost the same whatever the route.
func TestHandleRouteAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	h := NewServer(Config{CacheSize: -1, BatchWorkers: 1}).Handler()
	hb := core.MustNew(3, 8)
	far := 0
	for hb.Distance(0, far) != hb.DiameterFormula() {
		far++
	}
	pairs := map[string]int{
		"cube edge":      hb.Apply(core.Move{Cube: true}, 0),
		"butterfly edge": hb.Apply(core.Move{}, 0),
		"diameter":       far,
	}
	allocs := map[string]float64{}
	for name, v := range pairs {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?m=3&n=8&u=0&v=%d", v), nil)
		w := discardWriter{header: http.Header{}}
		get := func() {
			clear(w.header)
			w.code = 0
			h.ServeHTTP(&w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s pair 0->%d: status %d", name, v, w.code)
			}
		}
		get() // warm the pools
		allocs[name] = testing.AllocsPerRun(50, get)
	}
	for name := range pairs {
		if allocs[name] != allocs["diameter"] {
			t.Errorf("GET /route: %v allocs for a %s pair, %v for a diameter pair", allocs[name], name, allocs["diameter"])
		}
	}
}

// FuzzGetQuery sends raw query strings to the single-pair GET
// endpoints and to the router's shard-key parser. No query may panic
// or draw a 5xx. A 200 /route answer must be a route of
// Distance(u,v) hops from u to v, sharded on its own (dims,u,v).
func FuzzGetQuery(f *testing.F) {
	for _, q := range []string{
		"m=2&n=3&u=0&v=95",
		"m=2&n=3&u=0&v=95&verify=1",
		"m=2&n=3&u=7&v=7",
		"m=1&n=8&u=4095&v=3",
		"m=2&n=3&u=1&v=95&faults=1,2,3",
		"m=2&n=3&u=0&v=95&faults=,,-1,95,x",
		"m=-1&n=99&u=-5&v=+3",
		"m=30&n=30&u=1&v=2",
		"m=9999999999999999999&n=3&u=1&v=2",
		"u=&v=&m=&n=",
		"%zz;m=2&&n=3&u=0&u=1&v=2",
	} {
		f.Add(q)
	}
	// A small MaxOrder keeps each iteration fast; over it is a 400.
	h := NewServer(Config{MaxOrder: 1 << 12}).Handler()
	rt, err := NewRouter(ClusterConfig{Replicas: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/route", nil)
		req.URL.RawQuery = raw
		key := rt.requestKey(req)
		for _, ep := range []string{"/route", "/paths", "/faultroute"} {
			req := httptest.NewRequest(http.MethodGet, ep, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s?%s: status %d: %s", ep, raw, rec.Code, rec.Body.Bytes())
			}
			if ep != "/route" || rec.Code != http.StatusOK {
				continue
			}
			var rr routeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
				t.Fatalf("/route?%s: %v: %s", raw, err, rec.Body.Bytes())
			}
			hb := core.MustNew(rr.M, rr.N)
			p := rr.Path
			if len(p) == 0 || p[0] != rr.U || p[len(p)-1] != rr.V || len(p)-1 != hb.Distance(rr.U, rr.V) || rr.Distance != len(p)-1 {
				t.Fatalf("/route?%s: path %v with distance %d, want %d hops from %d to %d",
					raw, p, rr.Distance, hb.Distance(rr.U, rr.V), rr.U, rr.V)
			}
			for i := 1; i < len(p); i++ {
				if !slices.Contains(hb.AppendNeighbors(p[i-1], nil), p[i]) {
					t.Fatalf("/route?%s: hop %d->%d is not an edge", raw, p[i-1], p[i])
				}
			}
			if want := shardKey(Dims{M: rr.M, N: rr.N}, rr.U, rr.V); key != want {
				t.Fatalf("/route?%s: router key %#x, want the answer's (dims,u,v) key %#x", raw, key, want)
			}
		}
	})
}
