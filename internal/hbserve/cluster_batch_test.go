package hbserve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// --- owner sets -----------------------------------------------------

// TestLookupNOwnerSets pins the replication acceptance property: with
// R=2 and one replica ejected, every key keeps an alive owner inside
// its original owner set — ejecting the primary promotes the secondary
// in place, with no re-walk past the set.
func TestLookupNOwnerSets(t *testing.T) {
	names := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	ring := newHashRing(names, 0)

	const keys = 4096
	var buf []int
	before := make([][2]int, keys)
	for k := 0; k < keys; k++ {
		key := shardKey(Dims{M: 2, N: 4}, k, k+1)
		owners := ring.LookupN(key, 2, nil, buf)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("key %d owner set %v, want 2 distinct", k, owners)
		}
		// The primary is exactly what the single-query path routes to.
		if p := ring.Lookup(key, nil); p != owners[0] {
			t.Fatalf("key %d primary %d != Lookup %d", k, owners[0], p)
		}
		before[k] = [2]int{owners[0], owners[1]}
	}

	// Eject replica 1 and re-resolve every key's owner set.
	alive := func(i int) bool { return i != 1 }
	promoted, untouched := 0, 0
	for k := 0; k < keys; k++ {
		key := shardKey(Dims{M: 2, N: 4}, k, k+1)
		owners := ring.LookupN(key, 2, alive, buf)
		if len(owners) != 2 {
			t.Fatalf("key %d owner set shrank to %v with 3 alive", k, owners)
		}
		for _, o := range owners {
			if o == 1 {
				t.Fatalf("key %d still owned by the ejected replica", k)
			}
		}
		switch {
		case before[k][0] == 1:
			// Ejected primary: the old secondary must be the new primary.
			if owners[0] != before[k][1] {
				t.Fatalf("key %d: ejecting primary gave %d, want promoted secondary %d",
					k, owners[0], before[k][1])
			}
			promoted++
		case before[k][1] == 1:
			// Ejected secondary: the primary must not move.
			if owners[0] != before[k][0] {
				t.Fatalf("key %d: primary moved %d -> %d though it survived",
					k, before[k][0], owners[0])
			}
		default:
			// Untouched owner set: identical.
			if owners[0] != before[k][0] || owners[1] != before[k][1] {
				t.Fatalf("key %d owner set moved %v -> %v though both survived",
					k, before[k], owners)
			}
			untouched++
		}
	}
	if promoted == 0 || untouched == 0 {
		t.Fatalf("degenerate sample: %d promotions, %d untouched", promoted, untouched)
	}

	if got := ring.LookupN(42, 8, nil, buf); len(got) != len(names) {
		t.Errorf("LookupN(n=8) over %d replicas = %v, want all of them", len(names), got)
	}
	if got := ring.LookupN(42, 2, func(int) bool { return false }, buf); len(got) != 0 {
		t.Errorf("LookupN with none alive = %v, want empty", got)
	}
}

// TestForwardBatchDecodeAllocsFlat: the router checks a binary client
// body into a warm batchForward without allocating, at 64 pairs and at
// 4,096, and records its pair count.
func TestForwardBatchDecodeAllocsFlat(t *testing.T) {
	top := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(5))
	var gs batchForward
	bodies := map[int][]byte{}
	for _, pairs := range []int{4096, 64} {
		req := randomRouteBatch(rng, 3, 8, top.Order(), pairs)
		bodies[pairs] = appendBatchBinRequest(nil, req.op, req.m, req.n, nil, req.src, req.dst)
		if err := gs.decode(ctBatchBin, bodies[pairs]); err != nil {
			t.Fatal(err) // warm the scratch
		}
	}
	for _, pairs := range []int{64, 4096} {
		body := bodies[pairs]
		if got := testing.AllocsPerRun(50, func() {
			if err := gs.decode(ctBatchBin, body); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%d pairs: %v allocs per decode, want 0", pairs, got)
		}
		if gs.shape.pairs != pairs {
			t.Fatalf("%d pairs: recorded %d", pairs, gs.shape.pairs)
		}
	}
}

// TestRouterBatchAllocsFlat: a warm router in front of three
// in-process replicas answers a 4,096-pair binary batch in as many
// allocations as a 64-pair one, the replica's side of the hop included.
// The client body, the router's scratch, the replica's answer and the
// replica's own scratch are all pooled; what remains is per-request
// HTTP plumbing.
func TestRouterBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var urls []string
	for i := 0; i < 3; i++ {
		replica := httptest.NewServer(NewServer(Config{}).Handler())
		t.Cleanup(replica.Close)
		urls = append(urls, replica.URL)
	}
	rt, err := NewRouter(ClusterConfig{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	top := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(11))
	replays := map[int]*batchReplay{}
	for _, pairs := range []int{4096, 64} {
		req := randomRouteBatch(rng, 3, 8, top.Order(), pairs)
		replays[pairs] = newBatchReplay(rt.Handler(), ctBatchBin, appendBatchBinRequest(nil, req.op, req.m, req.n, nil, req.src, req.dst))
		for k := 0; k < 3; k++ {
			if code := replays[pairs].post(); code != http.StatusOK {
				t.Fatalf("%d pairs: status %d", pairs, code) // warm the pools
			}
		}
	}
	allocs := map[int]float64{}
	for _, pairs := range []int{64, 4096} {
		br := replays[pairs]
		allocs[pairs] = testing.AllocsPerRun(50, func() {
			if code := br.post(); code != http.StatusOK {
				t.Fatalf("%d pairs: status %d", pairs, code)
			}
		})
	}
	if allocs[64] != allocs[4096] {
		t.Fatalf("router /batch: %v allocs for 64 pairs, %v for 4096", allocs[64], allocs[4096])
	}
	t.Logf("%v allocs per forwarded batch, router and replica", allocs[64])
}

// --- whole-batch forwarding -----------------------------------------

// batchBody builds one /batch request body covering op and codec,
// including the faults column for faultroute.
func batchBody(t *testing.T, op, codec string, m, n int, faults, src, dst []int) (string, []byte) {
	t.Helper()
	if codec == "bin" {
		body, err := EncodeBatchBinRequest(op, m, n, faults, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return ctBatchBin, body
	}
	join := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprint(x)
		}
		return strings.Join(parts, ",")
	}
	body := fmt.Sprintf(`{"m":%d,"n":%d,"op":%q,"faults":[%s],"src":[%s],"dst":[%s]}`,
		m, n, op, join(faults), join(src), join(dst))
	return ctJSON, []byte(body)
}

// postBatchTo posts one /batch body to base and returns the response
// with its body read.
func postBatchTo(t *testing.T, base, ct string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/batch", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// firstPick is the replica an idle router with every replica alive
// sends a batch on d to first: its dims key's primary owner.
func firstPick(rt *Router, d Dims) int {
	return rt.ring.owners(shardKey(d, 0, 0), 1, nil, nil)[0]
}

// routeBatch64 is a fixed 64-pair batch on HB(2,3).
func routeBatch64() (src, dst []int) {
	for i := 0; i < 64; i++ {
		src = append(src, (i*5)%96)
		dst = append(dst, (i*11+7)%96)
	}
	return src, dst
}

// TestRouterScatterByteExact is the forwarding-correctness pin: for
// every op and both codecs, a batch answered through the router is
// byte-identical to the same batch answered by one replica directly,
// and the router sends each batch to exactly one replica, once.
func TestRouterScatterByteExact(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	const m, n = 2, 3
	var src, dst []int
	for i := 0; i < 48; i++ {
		src = append(src, i%96)
		dst = append(dst, (i*7+13)%96)
	}
	batches := 0
	for _, op := range []string{"dist", "route", "paths", "faultroute"} {
		var faults []int
		if op == "faultroute" {
			faults = []int{2, 17}
		}
		for _, codec := range []string{"json", "bin"} {
			ct, body := batchBody(t, op, codec, m, n, faults, src, dst)
			resp, viaRouter := postBatchTo(t, ts.URL, ct, body)
			batches++
			if resp.StatusCode != 200 {
				t.Fatalf("%s/%s: router status %d: %s", op, codec, resp.StatusCode, viaRouter)
			}
			if got := resp.Header.Get("X-Replica"); !slices.Contains(fleet.URLs(), got) {
				t.Errorf("%s/%s: X-Replica %q, want one replica URL", op, codec, got)
			}
			direct, whole := postBatchTo(t, fleet.URLs()[0], ct, body)
			if direct.StatusCode != 200 {
				t.Fatalf("%s/%s: direct status %d: %s", op, codec, direct.StatusCode, whole)
			}
			if !bytes.Equal(viaRouter, whole) {
				t.Errorf("%s/%s: response through the router differs from one replica's\nrouter: %q\ndirect: %q",
					op, codec, truncateForLog(viaRouter), truncateForLog(whole))
			}
		}
	}
	st := rt.Status()
	if st.SubbatchFanout != uint64(batches) || st.SubbatchRetries != 0 || st.SubbatchPairs != uint64(batches*len(src)) {
		t.Errorf("batch counters: fanout %d, retries %d, pairs %d; want %d, 0, %d",
			st.SubbatchFanout, st.SubbatchRetries, st.SubbatchPairs, batches, batches*len(src))
	}
}

func truncateForLog(b []byte) []byte {
	if len(b) > 256 {
		return b[:256]
	}
	return b
}

// TestRouterScatterSurvivesKilledReplica: the replica the router picks
// first for a batch is dead, and the router does not know it yet. The
// batch is retried on a survivor, zero pairs are lost and every answer
// is byte-exact, in both codecs.
func TestRouterScatterSurvivesKilledReplica(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs(), EjectAfter: 2})

	const m, n = 2, 3
	src, dst := routeBatch64()
	dead := firstPick(rt, Dims{M: m, N: n})
	live := fleet.URLs()[(dead+1)%3]
	if err := fleet.Kill(dead); err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"bin", "json"} {
		ct, body := batchBody(t, "route", codec, m, n, nil, src, dst)
		ref, want := postBatchTo(t, live, ct, body)
		if ref.StatusCode != 200 {
			t.Fatalf("%s: reference status %d: %s", codec, ref.StatusCode, want)
		}
		for i := 0; i < 4; i++ {
			resp, raw := postBatchTo(t, ts.URL, ct, body)
			if resp.StatusCode != 200 {
				t.Fatalf("%s batch %d: status %d with its first pick down: %s", codec, i, resp.StatusCode, raw)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("%s batch %d: response with a dead first pick differs from the reference", codec, i)
			}
			if got := resp.Header.Get("X-Replica"); got == fleet.URLs()[dead] {
				t.Fatalf("%s batch %d: answered by the dead replica", codec, i)
			}
		}
	}
	if st := rt.Status(); st.SubbatchRetries < 1 {
		t.Errorf("the dead first pick triggered %d batch retries, want at least 1", st.SubbatchRetries)
	}
}

// TestRouterScatterRetriesCorruptOffsets: the replica the router picks
// first answers every batch with a 200 whose offset column runs past
// its nodes and back (off=[0,5,2,...]). That is a corrupt replica, not
// a crash: each batch is retried on another replica, and the client
// still gets the whole batch's bytes, in both codecs.
func TestRouterScatterRetriesCorruptOffsets(t *testing.T) {
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			fmt.Fprintln(w, "ok")
			return
		}
		body, _ := io.ReadAll(r.Body)
		req := new(batchRequest)
		if err := parseBatchBody(ctBatchBin, body, req); err != nil {
			t.Errorf("corrupt replica: %v", err)
			return
		}
		k := len(req.src)
		c := &batchColumns{op: req.op, status: make([]uint8, k), dist: make([]int32, k), off: make([]int32, k+1), nodes: []int{7, 8}}
		for i := 1; i <= k; i++ {
			c.off[i] = 2
		}
		if k > 0 {
			c.off[1] = 5
		}
		w.Header().Set("Content-Type", ctBatchBin)
		w.Write(appendBatchBin(nil, c))
	}))
	defer corrupt.Close()
	fleet := newTestFleet(t, 2)

	// The ring places a replica by its URL, so give the corrupt one a
	// path prefix that makes it the batch's first pick.
	const m, n = 2, 3
	var cfg ClusterConfig
	for k := 0; ; k++ {
		cfg = ClusterConfig{Replicas: append([]string{fmt.Sprintf("%s/c%d", corrupt.URL, k)}, fleet.URLs()...), EjectAfter: 1000}
		probe, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if firstPick(probe, Dims{M: m, N: n}) == 0 {
			break
		}
	}
	rt, ts := newTestRouter(t, cfg)

	src, dst := routeBatch64()
	codecs := []string{"bin", "json"}
	for _, codec := range codecs {
		ct, body := batchBody(t, "route", codec, m, n, nil, src, dst)
		ref, want := postBatchTo(t, fleet.URLs()[0], ct, body)
		if ref.StatusCode != 200 {
			t.Fatalf("%s: reference status %d: %s", codec, ref.StatusCode, want)
		}
		resp, raw := postBatchTo(t, ts.URL, ct, body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s via the router: status %d: %s", codec, resp.StatusCode, raw)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s: answer through a corrupt first pick differs from the whole batch's", codec)
		}
	}
	if st := rt.Status(); st.SubbatchRetries != uint64(len(codecs)) {
		t.Errorf("%d batch retries, want %d: one per batch sent to the corrupt first pick", st.SubbatchRetries, len(codecs))
	}
}

// TestRouterBatchMalformed400 pins the edge validation: frames the
// router cannot size up are refused with 400 at the router instead of
// being forwarded into the fleet.
func TestRouterBatchMalformed400(t *testing.T) {
	fleet := newTestFleet(t, 2)
	_, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	bin, err := EncodeBatchBinRequest("route", 2, 3, nil, []int{0, 1}, []int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ct   string
		body string
	}{
		{"truncated binary header", ctBatchBin, string(bin[:12])},
		{"binary magic only", ctBatchBin, "HBB1"},
		{"json missing m", ctJSON, `{"n":3,"op":"route","src":[0],"dst":[9]}`},
		{"json missing n", ctJSON, `{"m":2,"op":"route","src":[0],"dst":[9]}`},
		{"json negative m", ctJSON, `{"m":-2,"n":3,"op":"route","src":[0],"dst":[9]}`},
		{"json negative n", ctJSON, `{"m":2,"n":-3,"op":"route","src":[0],"dst":[9]}`},
		{"wrong content type for binary body", "application/octet-stream", string(bin)},
		{"json truncated", ctJSON, `{"m":2,"n":3,`},
		{"empty batch with out-of-range dims, refused by its owner", ctJSON, `{"m":40,"n":3,"op":"route","src":[],"dst":[]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/batch", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, raw)
		}
	}
	// A well-formed frame still goes through untouched.
	resp, err := http.Post(ts.URL+"/batch", ctBatchBin, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("well-formed binary batch got %d", resp.StatusCode)
	}
}

// TestRouterScatterMetrics scrapes /metrics after one forwarded batch
// and pins the /batch families.
func TestRouterScatterMetrics(t *testing.T) {
	fleet := newTestFleet(t, 2)
	_, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	var src, dst []int
	for i := 0; i < 32; i++ {
		src = append(src, i)
		dst = append(dst, (i+9)%48)
	}
	ct, body := batchBody(t, "route", "bin", 2, 3, nil, src, dst)
	resp, err := http.Post(ts.URL+"/batch", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"hbd_router_replication 2\n",
		"hbd_router_subbatch_retries_total 0\n",
		fmt.Sprintf("hbd_router_owner_inflight_pairs{replica=%q} 0\n", fleet.URLs()[0]),
		fmt.Sprintf("hbd_router_owner_inflight_pairs{replica=%q} 0\n", fleet.URLs()[1]),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The 32-pair batch went to one replica, once.
	if !strings.Contains(text, "hbd_router_subbatch_fanout_total 1\n") {
		t.Errorf("fanout counter: %s", grepLine(text, "hbd_router_subbatch_fanout_total"))
	}
	if !strings.Contains(text, "hbd_router_subbatch_pairs_total 32\n") {
		t.Errorf("pairs counter: %s", grepLine(text, "hbd_router_subbatch_pairs_total"))
	}
}

func grepLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) && !strings.HasPrefix(line, "# ") {
			return line
		}
	}
	return "<absent>"
}
