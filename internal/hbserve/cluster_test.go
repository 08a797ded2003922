package hbserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- ring -----------------------------------------------------------

// TestRingAffinityUnderMembershipChange pins the property the cluster
// tier leans on: ejecting a replica moves only that replica's keys —
// every key owned by a survivor keeps its owner.
func TestRingAffinityUnderMembershipChange(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3"}
	ring := newHashRing(names, 0)

	const keys = 4096
	ownerAll := make([]int, keys)
	counts := make([]int, len(names))
	for k := 0; k < keys; k++ {
		ownerAll[k] = ring.Lookup(shardKey(Dims{M: 2, N: 4}, k, k+1), nil)
		if ownerAll[k] < 0 || ownerAll[k] >= len(names) {
			t.Fatalf("key %d mapped to replica %d", k, ownerAll[k])
		}
		counts[ownerAll[k]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("replica %d owns no keys out of %d", i, keys)
		}
		// Balance within a loose band: vnodes keep shares near 1/3 each.
		if frac := float64(c) / keys; frac < 0.15 || frac > 0.55 {
			t.Errorf("replica %d owns %.2f of the keyspace, want ~0.33", i, frac)
		}
	}

	// Eject replica 1: its keys spill, survivors keep every key.
	alive := func(i int) bool { return i != 1 }
	moved := 0
	for k := 0; k < keys; k++ {
		owner := ring.Lookup(shardKey(Dims{M: 2, N: 4}, k, k+1), alive)
		if owner == 1 {
			t.Fatalf("key %d mapped to the ejected replica", k)
		}
		if ownerAll[k] != 1 {
			if owner != ownerAll[k] {
				t.Fatalf("key %d moved %d -> %d though its owner survived", k, ownerAll[k], owner)
			}
		} else {
			moved++
		}
	}
	if moved == 0 {
		t.Error("ejected replica owned no keys; rebalance untested")
	}

	if got := ring.Lookup(42, func(int) bool { return false }); got != -1 {
		t.Errorf("Lookup with no live replica = %d, want -1", got)
	}
}

// --- health ---------------------------------------------------------

// TestHealthHysteresis drives a replica through down-and-back and pins
// the ejection / re-admission thresholds.
func TestHealthHysteresis(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	defer ts.Close()

	h := newHealthChecker(mustReplicaConns(t, ts.URL), 10*time.Millisecond, 100*time.Millisecond, 2, 2)
	h.Start()
	defer h.Stop()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if h.Healthy(0) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("replica never became %s", what)
	}

	waitFor(true, "healthy at start")
	down.Store(true)
	waitFor(false, "ejected after consecutive probe failures")
	if e := h.replicas[0].ejections.Load(); e != 1 {
		t.Errorf("ejections %d, want 1", e)
	}
	down.Store(false)
	waitFor(true, "re-admitted after consecutive probe successes")
	if r := h.replicas[0].readmissions.Load(); r != 1 {
		t.Errorf("readmissions %d, want 1", r)
	}
}

// TestHealthSingleFailureDoesNotEject: one dropped probe (below the
// hysteresis width) must not flap the membership.
func TestHealthSingleFailureDoesNotEject(t *testing.T) {
	h := newHealthChecker(mustReplicaConns(t, "http://127.0.0.1:1"), time.Hour, time.Second, 2, 2)
	h.ReportFailure(0)
	if !h.Healthy(0) {
		t.Fatal("ejected after a single failure with EjectAfter=2")
	}
	h.ReportFailure(0)
	if h.Healthy(0) {
		t.Fatal("still admitted after crossing EjectAfter")
	}
	// One success below ReadmitAfter keeps it ejected; the second admits.
	h.reportSuccess(0)
	if h.Healthy(0) {
		t.Fatal("re-admitted after a single success with ReadmitAfter=2")
	}
	h.reportSuccess(0)
	if !h.Healthy(0) {
		t.Fatal("not re-admitted after crossing ReadmitAfter")
	}
}

// --- test fleet -----------------------------------------------------

// testFleet runs n in-process hbd replicas on fixed ports so chaos can
// kill and restart them at stable addresses.
type testFleet struct {
	t        *testing.T
	handlers []http.Handler
	addrs    []string

	mu   sync.Mutex
	srvs []*http.Server
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{t: t}
	for i := 0; i < n; i++ {
		h := NewServer(Config{}).Handler()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		f.handlers = append(f.handlers, h)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.srvs = append(f.srvs, srv)
	}
	t.Cleanup(f.Close)
	return f
}

func (f *testFleet) URLs() []string {
	urls := make([]string, len(f.addrs))
	for i, a := range f.addrs {
		urls[i] = "http://" + a
	}
	return urls
}

// Kill closes replica i's listener and connections; in-flight requests
// die mid-stream, exactly like a crashed process.
func (f *testFleet) Kill(i int) error {
	f.mu.Lock()
	srv := f.srvs[i]
	f.srvs[i] = nil
	f.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Restart rebinds replica i's original address with a fresh server over
// the same handler (pool and caches survive, as a warm restart would).
func (f *testFleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srvs[i] != nil {
		return nil
	}
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if ln, err = net.Listen("tcp", f.addrs[i]); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", f.addrs[i], err)
	}
	srv := &http.Server{Handler: f.handlers[i]}
	f.srvs[i] = srv
	go srv.Serve(ln)
	return nil
}

func (f *testFleet) Close() {
	for i := range f.srvs {
		f.Kill(i)
	}
}

// --- router ---------------------------------------------------------

func newTestRouter(t *testing.T, cfg ClusterConfig) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func TestRouterForwardsByShard(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// The same key answers from the same replica, byte-identically.
	owners := map[string]bool{}
	for u := 0; u < 24; u++ {
		url := fmt.Sprintf("%s/route?m=1&n=3&u=%d&v=%d", ts.URL, u, (u+11)%48)
		first, body1 := get(url)
		if first.StatusCode != 200 {
			t.Fatalf("u=%d: status %d: %s", u, first.StatusCode, body1)
		}
		owner := first.Header.Get("X-Replica")
		if owner == "" {
			t.Fatal("no X-Replica header")
		}
		owners[owner] = true
		second, body2 := get(url)
		if got := second.Header.Get("X-Replica"); got != owner {
			t.Errorf("u=%d moved %s -> %s with stable membership", u, owner, got)
		}
		if string(body1) != string(body2) {
			t.Errorf("u=%d: bodies differ across requests", u)
		}
		var rr routeResponse
		if err := json.Unmarshal(body1, &rr); err != nil || rr.Distance != len(rr.Path)-1 {
			t.Errorf("u=%d: bad route body %s (err %v)", u, body1, err)
		}
	}
	if len(owners) < 2 {
		t.Errorf("24 keys all landed on %d replica(s); sharding inert", len(owners))
	}

	st := rt.Status()
	total := uint64(0)
	for _, r := range st.Replicas {
		total += r.Forwarded
	}
	if total != 48 {
		t.Errorf("router forwarded %d requests, want 48", total)
	}
}

// TestRouterAffinityAcrossEjection is the end-to-end rebalance check:
// ejecting one replica must not move any key owned by a survivor.
func TestRouterAffinityAcrossEjection(t *testing.T) {
	fleet := newTestFleet(t, 3)
	urls := fleet.URLs()
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: urls})

	owner := func(u, v int) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/route?m=1&n=3&u=%d&v=%d", ts.URL, u, v))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Replica")
	}

	before := map[int]string{}
	for u := 0; u < 32; u++ {
		before[u] = owner(u, (u+17)%48)
	}
	// White-box ejection: mark replica 1 unhealthy, as the checker would.
	rt.health.replicas[1].healthy.Store(false)
	movedFrom1 := 0
	for u := 0; u < 32; u++ {
		after := owner(u, (u+17)%48)
		if after == urls[1] {
			t.Fatalf("key %d served by the ejected replica", u)
		}
		switch before[u] {
		case urls[1]:
			movedFrom1++
		default:
			if after != before[u] {
				t.Errorf("key %d moved %s -> %s though its owner survived", u, before[u], after)
			}
		}
	}
	if movedFrom1 == 0 {
		t.Error("ejected replica owned no sampled keys; rebalance untested")
	}
}

// TestRouterRetriesReplicaDyingMidRequest: a replica that accepts the
// connection and then dies mid-request (hijack + close, the tightest
// version of a kill) must be retried on the next live replica, and the
// forward failures must feed the ejection hysteresis.
func TestRouterRetriesReplicaDyingMidRequest(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer evil.Close()
	fleet := newTestFleet(t, 2)
	urls := append([]string{evil.URL}, fleet.URLs()...)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: urls, EjectAfter: 2, MaxAttempts: 3})

	for u := 0; u < 32; u++ {
		resp, err := http.Get(fmt.Sprintf("%s/route?m=1&n=3&u=%d&v=%d", ts.URL, u, (u+5)%48))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("u=%d: status %d after retries", u, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Replica"); got == evil.URL {
			t.Fatalf("u=%d: answer attributed to the dying replica", u)
		}
	}
	st := rt.Status()
	if st.Retries == 0 {
		t.Error("no retries recorded though the dying replica owned part of the keyspace")
	}
	if rt.Healthy(0) {
		t.Error("dying replica still admitted after repeated mid-request failures")
	}
	if st.Replicas[0].Ejections == 0 {
		t.Error("no ejection recorded for the dying replica")
	}
}

// TestRouterRetriesReplica503: a replica answering a single GET with a
// 5xx, a shed among them, is retried on the key's other owner, exactly
// as a forwarded /batch is; the client never sees that 503.
func TestRouterRetriesReplica503(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Retry-After", "1")
		writeErr(w, &httpError{code: http.StatusServiceUnavailable, msg: "over capacity"})
	}))
	defer shedding.Close()
	fleet := newTestFleet(t, 1)
	urls := append([]string{shedding.URL}, fleet.URLs()...)
	// Replication 2 over two replicas: every key has both as owners.
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: urls, EjectAfter: 1000})

	for u := 0; u < 16; u++ {
		resp, err := http.Get(fmt.Sprintf("%s/route?m=1&n=3&u=%d&v=%d", ts.URL, u, (u+5)%48))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("u=%d: status %d: %s", u, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Replica"); got != fleet.URLs()[0] {
			t.Fatalf("u=%d: answered by %s, want the healthy owner", u, got)
		}
	}
	if rt.Status().Retries == 0 {
		t.Error("no retries recorded though the shedding replica is the primary owner of some keys")
	}
}

// TestRouterAllReplicasDown503: with every replica unreachable the
// router must answer 503 with Retry-After promptly — not hang, not 500.
func TestRouterAllReplicasDown503(t *testing.T) {
	// Grab two ports and close them so connections are refused fast.
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, "http://"+ln.Addr().String())
		ln.Close()
	}
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: urls})

	start := time.Now()
	// Two requests: each attempt refuses instantly and feeds the
	// EjectAfter=2 hysteresis, so by the end both replicas are ejected.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/route?m=1&n=3&u=0&v=7")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503 (body %s)", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("request %d: 503 without Retry-After", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("all-down answers took %v; should fail fast", elapsed)
	}
	if n := rt.Status().NoReplica; n != 2 {
		t.Errorf("no_replica counter %d, want 2", n)
	}
	// The failed attempts must have ejected both replicas.
	if rt.health.HealthyCount() != 0 {
		t.Errorf("%d replicas still admitted after repeated refusals", rt.health.HealthyCount())
	}
}

// TestRouterQueueShed: a full forwarding queue answers 503 +
// Retry-After instead of queueing without bound.
func TestRouterQueueShed(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			<-release
		}
		fmt.Fprintln(w, "ok")
	}))
	defer slow.Close()
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: []string{slow.URL}, QueueDepth: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/info?m=1&n=3")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Wait until both slots are held.
	deadline := time.Now().Add(2 * time.Second)
	for len(rt.queue) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/info?m=1&n=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-capacity request got %d (Retry-After %q), want 503", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if rt.Status().Shed != 1 {
		t.Errorf("shed counter %d, want 1", rt.Status().Shed)
	}
	close(release) // unblock the two queued forwards before waiting
	wg.Wait()
}

// TestRouterBatchForward: POST bodies are buffered (retry-safe) and
// /batch shard keys come from the body dims.
func TestRouterBatchForward(t *testing.T) {
	fleet := newTestFleet(t, 2)
	_, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	body := `{"m":2,"n":3,"op":"route","src":[0,5],"dst":[9,95]}`
	resp, err := http.Post(ts.URL+"/batch", ctJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"status":[0,0]`) {
		t.Errorf("batch body %s", raw)
	}
	if resp.Header.Get("X-Replica") == "" {
		t.Error("no X-Replica header on /batch")
	}
}

func TestPeekBatchDims(t *testing.T) {
	if m, n, ok := peekBatchDims(ctJSON, []byte(`{"m":3,"n":5,"op":"dist"}`)); !ok || m != 3 || n != 5 {
		t.Errorf("json peek = (%d,%d,%v)", m, n, ok)
	}
	bin, err := EncodeBatchBinRequest("route", 2, 4, nil, []int{0}, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	if m, n, ok := peekBatchDims(ctBatchBin, bin); !ok || m != 2 || n != 4 {
		t.Errorf("bin peek = (%d,%d,%v)", m, n, ok)
	}
	if _, _, ok := peekBatchDims(ctBatchBin, []byte("short")); ok {
		t.Error("peeked dims out of a truncated binary frame")
	}
	if _, _, ok := peekBatchDims(ctJSON, []byte("{")); ok {
		t.Error("peeked dims out of malformed JSON")
	}
}

// TestRouterStopWithoutStart: a router that was never started stops at
// once, and a Start after Stop launches no probes.
func TestRouterStopWithoutStart(t *testing.T) {
	rt, err := NewRouter(ClusterConfig{Replicas: []string{"http://127.0.0.1:9001"}})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		rt.Stop()
		rt.Start()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop on a never-started router still blocked after 10s")
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(ClusterConfig{}); err == nil {
		t.Error("accepted an empty replica list")
	}
	if _, err := NewRouter(ClusterConfig{Replicas: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Error("accepted duplicate replica URLs")
	}
	if _, err := NewRouter(ClusterConfig{Replicas: []string{" "}}); err == nil {
		t.Error("accepted a blank replica URL")
	}
	// The pool speaks plain HTTP/1.1 to http://host:port, which may carry
	// a path prefix.
	for _, tc := range []struct {
		url string
		ok  bool
	}{
		{"http://127.0.0.1:9001", true},
		{"http://localhost:9001/", true},
		{" http://[::1]:9001 ", true},
		{"http://replica:9001/hbd/v1", true},
		{"HTTP://replica:9001", true},
		{"https://replica:9443", false},
		{"ftp://replica:21", false},
		{"http://:9001", false},
		{"http:///hbd", false},
		{"http://replica", false},
		{"127.0.0.1:9001", false},
		{"replica:9001", false},
		{"http://user:pw@replica:9001", false},
		{"http://replica:9001?x=1", false},
		{"http://replica:9001/?", false},
		{"http://replica:9001#top", false},
	} {
		_, err := NewRouter(ClusterConfig{Replicas: []string{tc.url}})
		if (err == nil) != tc.ok {
			t.Errorf("NewRouter(%q): err = %v, want ok = %v", tc.url, err, tc.ok)
		}
	}
}
