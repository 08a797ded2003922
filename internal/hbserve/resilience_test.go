package hbserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultroute"
)

// TestFaultRouteJSONShape locks the canonical encoding of the echoed
// fault set: always a JSON array (never null), sorted and deduplicated
// regardless of how the query spelled it.
func TestFaultRouteJSONShape(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := get(t, ts.URL+"/faultroute?m=2&n=3&u=0&v=95")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"faults":[]`) {
		t.Errorf("no-faults response must encode \"faults\":[]; got %s", body)
	}
	if strings.Contains(string(body), "null") {
		t.Errorf("response leaks a JSON null: %s", body)
	}

	code, body = get(t, ts.URL+"/faultroute?m=2&n=3&u=0&v=95&faults=7,3,7,1,3")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"faults":[1,3,7]`) {
		t.Errorf("duplicated unsorted query must echo [1,3,7]; got %s", body)
	}
	var res faultRouteResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Path) == 0 || res.Path[0] != 0 || res.Path[len(res.Path)-1] != 95 {
		t.Errorf("bad path %v", res.Path)
	}
}

// faultRouteCase is one /faultroute query and the one-shot router's
// answer for it.
type faultRouteCase struct {
	m, n, u, v int
	faults     []int
	path       []int
	strategy   string
}

func (c faultRouteCase) query() string {
	fs := make([]string, len(c.faults))
	for i, f := range c.faults {
		fs[i] = strconv.Itoa(f)
	}
	return fmt.Sprintf("/faultroute?m=%d&n=%d&u=%d&v=%d&faults=%s", c.m, c.n, c.u, c.v, strings.Join(fs, ","))
}

// neighbourhoodCases finds one HB(m,n) query per wanted strategy whose
// fault set is m+3 of the destination's m+4 neighbours, each case with
// a fault set of its own. Such sets defeat the optimal route and often
// greedy routing too, so they reach every rung of Theorem 5's ladder.
func neighbourhoodCases(t *testing.T, m, n int, want ...string) []faultRouteCase {
	t.Helper()
	top := core.MustNew(m, n)
	var out []faultRouteCase
	need := map[string]int{}
	for _, s := range want {
		need[s]++
	}
	for v := 0; v < top.Order() && len(out) < len(want); v++ {
		nbrs := top.AppendNeighbors(v, nil)
		for skip := range nbrs {
			faults := slices.Delete(slices.Clone(nbrs), skip, skip+1)
			slices.Sort(faults)
			for u := 0; u < top.Order(); u += 5 {
				if u == v || slices.Contains(faults, u) {
					continue
				}
				path, strategy, err := faultroute.Route(top, faults, u, v)
				if err != nil {
					t.Fatal(err)
				}
				if need[strategy] > 0 {
					need[strategy]--
					out = append(out, faultRouteCase{m: m, n: n, u: u, v: v, faults: faults, path: path, strategy: strategy})
					break // one case per fault set
				}
			}
		}
	}
	if len(out) != len(want) {
		t.Fatalf("HB(%d,%d): found %d of the cases %v", m, n, len(out), want)
	}
	return out
}

// historyCases is the HB(2,3) and HB(3,4) neighbourhood query set:
// eight fault sets, routed optimally, greedily and on a disjoint path.
func historyCases(t *testing.T) []faultRouteCase {
	want := []string{"optimal", "greedy", "disjoint", "disjoint"}
	return append(neighbourhoodCases(t, 2, 3, want...), neighbourhoodCases(t, 3, 4, want...)...)
}

// serveFaultRoute sends c's GET straight to the handler.
func serveFaultRoute(h http.Handler, c faultRouteCase) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.query(), nil))
	return rec.Code, rec.Body.Bytes()
}

// TestFaultRouteHistoryIndependent: a /faultroute body depends only on
// its own query. Sent first to a fresh server, it carries the one-shot
// router's path and strategy, and a server that answered other fault
// sets before, in either order, answers it byte for byte the same.
func TestFaultRouteHistoryIndependent(t *testing.T) {
	cases := historyCases(t)
	first := make([][]byte, len(cases))
	for i, c := range cases {
		code, body := serveFaultRoute(NewServer(Config{}).Handler(), c)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", c.query(), code, body)
		}
		var res faultRouteResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Path, c.path) || res.Strategy != c.strategy || !res.WithinGuarantee {
			t.Fatalf("%s: served %s, one-shot router %v (%s)", c.query(), body, c.path, c.strategy)
		}
		first[i] = body
	}
	h := NewServer(Config{}).Handler()
	for pass := 0; pass < 4; pass++ {
		for k := range cases {
			i := k
			if pass%2 == 1 {
				i = len(cases) - 1 - k
			}
			code, body := serveFaultRoute(h, cases[i])
			if code != 200 || !bytes.Equal(body, first[i]) {
				t.Fatalf("pass %d, %s: status %d, body %s; sent first it was %s", pass, cases[i].query(), code, body, first[i])
			}
		}
	}
}

// TestFaultRouteHistoryIndependentConcurrent: eight goroutines, each
// with its own fault set, query one server at once; every answer is
// the body that query gets when sent first to a fresh server.
func TestFaultRouteHistoryIndependentConcurrent(t *testing.T) {
	cases := historyCases(t)
	first := make([][]byte, len(cases))
	for i, c := range cases {
		_, first[i] = serveFaultRoute(NewServer(Config{}).Handler(), c)
	}
	h := NewServer(Config{}).Handler()
	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				code, body := serveFaultRoute(h, cases[i])
				if code != 200 || !bytes.Equal(body, first[i]) {
					t.Errorf("%s: status %d, body %s; sent first it was %s", cases[i].query(), code, body, first[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPanicRecovery: a panicking handler must answer 500, bump the
// panic metric, and leave the daemon serving.
func TestPanicRecovery(t *testing.T) {
	s := NewServer(Config{})
	s.mux.HandleFunc("/boom", s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/boom")
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, body)
	}
	if !strings.Contains(string(body), "kaboom") {
		t.Errorf("500 body does not mention the panic: %s", body)
	}
	if got := s.Metrics().Panics(); got != 1 {
		t.Errorf("panic counter %d, want 1", got)
	}
	if s.Metrics().InFlight() != 0 {
		t.Error("in-flight gauge leaked by the panicking request")
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("daemon stopped serving after a recovered panic (healthz %d)", code)
	}
	if code, _ := get(t, ts.URL+"/route?m=2&n=3&u=0&v=1"); code != 200 {
		t.Errorf("daemon stopped serving after a recovered panic (route %d)", code)
	}
}

// TestCachedComputePanic: a panic inside a cached compute answers 500
// to the request that ran it and to every request waiting on it, and
// each compute that panicked is counted once. The panic is injected at
// the cache boundary: the handler serves through serveCached, the call
// /route and /paths make.
func TestCachedComputePanic(t *testing.T) {
	s := NewServer(Config{})
	s.mux.HandleFunc("/boom", s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		s.serveCached(w, "boom", func() ([]byte, error) { panic("route bug") })
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const requests = 8
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := get(t, ts.URL+"/boom")
			if code != http.StatusInternalServerError || !strings.Contains(string(body), "route bug") {
				t.Errorf("status %d, want 500 naming the panic: %s", code, body)
			}
		}()
	}
	wg.Wait()
	_, computes, _ := s.Cache().Stats()
	if got := s.Metrics().Panics(); got == 0 || got != computes {
		t.Errorf("panic counter %d, want one per panicking compute (%d)", got, computes)
	}
	if s.Cache().Len() != 0 {
		t.Error("a panicking compute left a cache entry")
	}
}

// TestLoadShedding: once in-flight work exceeds MaxInFlight, further
// requests get an immediate 503 with Retry-After instead of queueing.
func TestLoadShedding(t *testing.T) {
	s := NewServer(Config{MaxInFlight: 1})
	hold := make(chan struct{})
	var once sync.Once
	s.testHook = func(endpoint string) {
		if endpoint == "info" {
			once.Do(func() { <-hold })
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		code, _ := get(t, ts.URL+"/info?m=2&n=3")
		done <- code
	}()
	// Wait until the first request is counted in flight.
	for i := 0; s.Metrics().InFlight() < 1; i++ {
		if i > 1000 {
			t.Fatal("first request never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/info?m=2&n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if got := s.Metrics().Sheds(); got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}

	close(hold)
	if code := <-done; code != 200 {
		t.Errorf("held request finished with %d, want 200", code)
	}
	// With the holder gone, the same query must serve normally again.
	if code, body := get(t, ts.URL+"/info?m=2&n=3"); code != 200 {
		t.Errorf("post-shed request failed: %d %s", code, body)
	}
}

// TestRequestDeadline: an already-expired per-request deadline turns
// into a 503 before the heavy handlers start work.
func TestRequestDeadline(t *testing.T) {
	s := NewServer(Config{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// The nanosecond deadline has always expired by the time the handler
	// checks it.
	for _, path := range []string{"/faultroute?m=2&n=3&u=0&v=95", "/conformance?m=0&n=3"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d, want 503: %s", path, code, body)
		}
	}

	// A negative RequestTimeout disables the deadline entirely.
	s2 := NewServer(Config{RequestTimeout: -1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, body := get(t, ts2.URL+"/faultroute?m=2&n=3&u=0&v=95"); code != 200 {
		t.Errorf("deadline-disabled faultroute failed: %d %s", code, body)
	}
}

// TestPoolNeverEvictsInFlightBuild locks the satellite-3 fix: an entry
// another goroutine is still constructing must survive eviction
// pressure (the pool overshoots Max instead), Len must not count
// half-built entries, and the builder must get its instance back.
func TestPoolNeverEvictsInFlightBuild(t *testing.T) {
	d1 := Dims{M: 1, N: 3}
	d2 := Dims{M: 0, N: 3}
	d3 := Dims{M: 0, N: 4}
	started := make(chan struct{})
	release := make(chan struct{})
	p := &Pool{Max: 1}
	p.construct = func(d Dims) (*core.HyperButterfly, error) {
		if d == d1 {
			close(started)
			<-release
		}
		return core.New(d.M, d.N)
	}

	got := make(chan *core.HyperButterfly, 1)
	go func() {
		hb, err := p.Get(d1)
		if err != nil {
			t.Error(err)
		}
		got <- hb
	}()
	<-started
	if p.Len() != 0 {
		t.Errorf("Len %d while the only entry is mid-build, want 0", p.Len())
	}

	// d2 arrives while d1 is mid-build: the only eviction candidate is
	// in flight, so the pool must keep both.
	hb2, err := p.Get(d2)
	if err != nil || hb2 == nil {
		t.Fatal(err)
	}
	if p.Evictions() != 0 {
		t.Errorf("evicted %d entries while the victim was mid-build", p.Evictions())
	}

	close(release)
	hb1 := <-got
	if hb1 == nil || hb1.Order() != 48 {
		t.Fatalf("builder got %v back, want its HB(1,3)", hb1)
	}
	if p.Len() != 2 {
		t.Errorf("Len %d after both builds, want 2 (temporary overshoot of Max=1)", p.Len())
	}

	// The next insertion finds built victims and enforces the bound.
	if _, err := p.Get(d3); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Errorf("Len %d after pressure with built victims, want Max=1", p.Len())
	}
	if p.Evictions() != 2 {
		t.Errorf("evictions %d, want 2", p.Evictions())
	}
}

// TestPoolConcurrentChurn hammers a Max=1 pool from many goroutines
// under -race: every Get must return the instance it asked for.
func TestPoolConcurrentChurn(t *testing.T) {
	p := &Pool{Max: 1}
	dims := []Dims{{M: 0, N: 3}, {M: 1, N: 3}, {M: 0, N: 4}, {M: 2, N: 3}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := dims[(w+i)%len(dims)]
				hb, err := p.Get(d)
				if err != nil {
					t.Error(err)
					return
				}
				if hb == nil || hb.Order() != d.N<<uint(d.M+d.N) {
					t.Errorf("Get(%v) returned wrong instance %v", d, hb)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p.Len() > len(dims) {
		t.Errorf("Len %d after churn", p.Len())
	}
}

// TestMetricsExposesResilienceCounters: the new counters appear in the
// exposition so the chaos dashboards can scrape them.
func TestMetricsExposesResilienceCounters(t *testing.T) {
	s, ts := newTestServer(t)
	s.Metrics().PanicRecovered()
	s.Metrics().LoadShed()
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{"hbd_panics_total 1", "hbd_load_shed_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
