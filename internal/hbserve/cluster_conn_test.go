package hbserve

import (
	"bytes"
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

// mustReplicaConns parses replica URLs a test knows to be valid.
func mustReplicaConns(t *testing.T, urls ...string) []*replicaConns {
	t.Helper()
	var out []*replicaConns
	for _, u := range urls {
		c, err := newReplicaConns(u)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestRouterReplicaPathPrefix: a replica served below a path prefix
// gets every forward under that prefix.
func TestRouterReplicaPathPrefix(t *testing.T) {
	h := NewServer(Config{}).Handler()
	replica := httptest.NewServer(http.StripPrefix("/hbd", h))
	defer replica.Close()
	_, ts := newTestRouter(t, ClusterConfig{Replicas: []string{replica.URL + "/hbd/"}})
	if err := checkForward(ts.URL, h, "/route?m=1&n=3&u=0&v=11"); err != nil {
		t.Fatal(err)
	}
}

// TestRouterForwardsHead: a HEAD answer carries a Content-Length but
// no body; the forward must not wait for one.
func TestRouterForwardsHead(t *testing.T) {
	replica := httptest.NewServer(NewServer(Config{}).Handler())
	defer replica.Close()
	_, ts := newTestRouter(t, ClusterConfig{Replicas: []string{replica.URL}, ForwardTimeout: 5 * time.Second})
	for i := 0; i < 2; i++ {
		resp, err := http.Head(ts.URL + "/route?m=1&n=3&u=0&v=11")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("X-Replica") != replica.URL {
			t.Fatalf("HEAD %d: status %d, X-Replica %q", i, resp.StatusCode, resp.Header.Get("X-Replica"))
		}
	}
}

// TestRouterRejectsOversizedBody: any request body over maxBatchBody
// answers 400 at the router, and nothing reaches the replica.
func TestRouterRejectsOversizedBody(t *testing.T) {
	var reached atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		fmt.Fprintln(w, "ok")
	}))
	defer replica.Close()
	_, ts := newTestRouter(t, ClusterConfig{Replicas: []string{replica.URL}})

	big := strings.Repeat("x", maxBatchBody+1)
	for _, path := range []string{"/route?m=1&n=3&u=0&v=11", "/batch"} {
		resp, err := http.Post(ts.URL+path, ctJSON, strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with a %d-byte body: status %d (%s), want 400", path, len(big), resp.StatusCode, body)
		}
	}
	if n := reached.Load(); n != 0 {
		t.Errorf("%d oversized requests reached the replica", n)
	}
}

// --- connection pool ----------------------------------------------------

// watchedReplica is an in-process replica whose http.Server reports
// every connection state change on a channel, so the pool tests wait
// on the replica's own view of its connections instead of sleeping.
type watchedReplica struct {
	url    string
	events chan connEvent
	open   int // connections open, as the events consumed so far tell
	dials  int // connections accepted, likewise
}

type connEvent struct {
	conn  net.Conn
	state http.ConnState
}

func newWatchedReplica(t *testing.T, h http.Handler) *watchedReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rep := &watchedReplica{url: "http://" + ln.Addr().String(), events: make(chan connEvent, 1<<14)}
	srv := &http.Server{Handler: h, ConnState: func(c net.Conn, s http.ConnState) {
		rep.events <- connEvent{c, s}
	}}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return rep
}

// next consumes the next connection state change; the test fails if
// none comes within 10 s.
func (rep *watchedReplica) next(t *testing.T) connEvent {
	t.Helper()
	select {
	case ev := <-rep.events:
		switch ev.state {
		case http.StateNew:
			rep.open++
			rep.dials++
		case http.StateClosed, http.StateHijacked:
			rep.open--
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatalf("replica %s: no connection state change in 10s (%d open)", rep.url, rep.open)
		return connEvent{}
	}
}

// drain consumes the state changes already delivered.
func (rep *watchedReplica) drain(t *testing.T) {
	t.Helper()
	for len(rep.events) > 0 {
		rep.next(t)
	}
}

// waitOpen consumes state changes until want connections are open.
func (rep *watchedReplica) waitOpen(t *testing.T, want int) {
	t.Helper()
	rep.drain(t)
	for rep.open != want {
		rep.next(t)
	}
}

// idleConns counts replica i's pooled idle connections.
func idleConns(rt *Router, i int) int {
	p := rt.health.replicas[i].conns
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// checkForward GETs path through the router and compares the answer
// with what the replica handler h gives for it directly.
func checkForward(routerURL string, h http.Handler, path string) error {
	want := httptest.NewRecorder()
	h.ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
	resp, err := http.Get(routerURL + path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want.Code || !bytes.Equal(body, want.Body.Bytes()) {
		return fmt.Errorf("%s: router answered %d %q, replica %d %q", path, resp.StatusCode, body, want.Code, want.Body.Bytes())
	}
	return nil
}

// checkNoFailures asserts that no forward failed over or fed ejection.
func checkNoFailures(t *testing.T, rt *Router) {
	t.Helper()
	st := rt.Status()
	if st.Retries != 0 || st.SubbatchRetries != 0 {
		t.Errorf("retries %d, batch retries %d; want 0", st.Retries, st.SubbatchRetries)
	}
	for i, r := range st.Replicas {
		if !r.Healthy || r.Ejections != 0 {
			t.Errorf("replica %d: healthy %v, ejections %d", i, r.Healthy, r.Ejections)
		}
	}
}

// TestRouterPoolConnectionClose: a replica that answers every request
// with Connection: close gets a fresh connection per forward, and the
// closed ones never enter the pool.
func TestRouterPoolConnectionClose(t *testing.T) {
	h := NewServer(Config{}).Handler()
	rep := newWatchedReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		h.ServeHTTP(w, r)
	}))
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: []string{rep.url}})

	const forwards = 8
	for u := 0; u < forwards; u++ {
		if err := checkForward(ts.URL, h, fmt.Sprintf("/route?m=1&n=3&u=%d&v=%d", u, (u+11)%48)); err != nil {
			t.Fatal(err)
		}
		if n := idleConns(rt, 0); n != 0 {
			t.Fatalf("forward %d: %d closed connections pooled", u, n)
		}
	}
	rep.waitOpen(t, 0)
	if rep.dials != forwards {
		t.Errorf("%d connections for %d forwards, want one each", rep.dials, forwards)
	}
	checkNoFailures(t, rt)
}

// TestRouterPoolReplicaClosesIdle: a replica that closes every
// connection as soon as it goes idle, as an idle timeout or a restart
// does, leaves a stale connection in the pool before each forward. The
// forward redials without counting a retry or a failure.
func TestRouterPoolReplicaClosesIdle(t *testing.T) {
	h := NewServer(Config{}).Handler()
	rep := newWatchedReplica(t, h)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: []string{rep.url}, EjectAfter: 1})

	const forwards = 8
	for u := 0; u < forwards; u++ {
		if err := checkForward(ts.URL, h, fmt.Sprintf("/route?m=1&n=3&u=%d&v=%d", u, (u+5)%48)); err != nil {
			t.Fatal(err)
		}
		if n := idleConns(rt, 0); n != 1 {
			t.Fatalf("forward %d: %d idle connections, want the one just used", u, n)
		}
		for ev := rep.next(t); ; ev = rep.next(t) {
			if ev.state == http.StateIdle {
				ev.conn.Close()
				break
			}
		}
		rep.waitOpen(t, 0)
	}
	if rep.dials != forwards {
		t.Errorf("%d connections for %d forwards, want one each", rep.dials, forwards)
	}
	checkNoFailures(t, rt)
}

// TestRouterPoolChunkedRelay: an answer the replica flushes mid-body
// (chunked transfer coding) is relayed byte-identical, headers
// included, and its connection is reused.
func TestRouterPoolChunkedRelay(t *testing.T) {
	parts := []string{`{"part":1,`, `"pad":"` + strings.Repeat("x", 10000) + `",`, `"part":2}` + "\n"}
	rep := newWatchedReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ctJSON)
		w.Header().Set("X-Cache", "miss")
		for _, p := range parts {
			io.WriteString(w, p)
			w.(http.Flusher).Flush()
		}
	}))
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: []string{rep.url}})
	want := strings.Join(parts, "")

	direct := &http.Client{Transport: &http.Transport{}}
	resp, err := direct.Get(rep.url + "/route?m=1&n=3&u=0&v=7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	direct.CloseIdleConnections()
	if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("replica answered with transfer coding %v, want chunked", resp.TransferEncoding)
	}

	const forwards = 3
	for i := 0; i < forwards; i++ {
		resp, err := http.Get(ts.URL + "/route?m=1&n=3&u=0&v=7")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != want {
			t.Fatalf("forward %d: status %d, %d body bytes, want 200 and %d bytes byte-identical", i, resp.StatusCode, len(body), len(want))
		}
		for k, v := range map[string]string{"Content-Type": ctJSON, "X-Cache": "miss", "X-Replica": rep.url} {
			if got := resp.Header.Get(k); got != v {
				t.Errorf("forward %d: %s = %q, want %q", i, k, got, v)
			}
		}
	}
	rep.waitOpen(t, 1)
	if rep.dials != 2 {
		t.Errorf("%d connections for one direct GET and %d forwards, want 2", rep.dials, forwards)
	}
	checkNoFailures(t, rt)
}

// TestRouterPoolConcurrentForwards: 8 goroutines forward through one
// replica's pool at once. Every answer is right, and the pool never
// holds more connections than there were forwards in flight.
func TestRouterPoolConcurrentForwards(t *testing.T) {
	h := NewServer(Config{}).Handler()
	rep := newWatchedReplica(t, h)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: []string{rep.url}})

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				path := fmt.Sprintf("/route?m=2&n=3&u=%d&v=%d", g, (g*13+k*7+1)%96)
				if err := checkForward(ts.URL, h, path); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rep.drain(t)
	if rep.dials > workers {
		t.Errorf("pool dialled %d connections for %d concurrent forwarders", rep.dials, workers)
	}
	if n := idleConns(rt, 0); n != rep.dials {
		t.Errorf("%d idle connections after the load, want all %d dialled", n, rep.dials)
	}
	checkNoFailures(t, rt)
}

// TestRouterPoolStopClosesConns: after GET forwards and a forwarded
// /batch, Router.Stop leaves no connection open on any replica.
func TestRouterPoolStopClosesConns(t *testing.T) {
	h := NewServer(Config{}).Handler()
	reps := []*watchedReplica{newWatchedReplica(t, h), newWatchedReplica(t, h)}
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: []string{reps[0].url, reps[1].url}, ProbeInterval: time.Hour})
	rt.Start()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := 0; u < 12; u++ {
				if err := checkForward(ts.URL, h, fmt.Sprintf("/route?m=1&n=3&u=%d&v=%d", u, (u+g+1)%48)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	resp, err := http.Post(ts.URL+"/batch", ctJSON, strings.NewReader(`{"m":2,"n":3,"op":"route","src":[0,5,7,9],"dst":[9,95,3,40]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/batch status %d", resp.StatusCode)
	}

	open := 0
	for _, rep := range reps {
		rep.drain(t)
		open += rep.open
	}
	if open == 0 {
		t.Fatal("no replica connection open before Stop; nothing to close")
	}
	rt.Stop()
	for _, rep := range reps {
		rep.waitOpen(t, 0)
	}
	checkNoFailures(t, rt)
}
