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

// TestPartitionSubBatchColumns: every sub-batch body carries exactly its
// replica's pairs in their original order, and a pooled scratch that
// partitioned a full batch partitions an empty one into one empty
// sub-batch for the dims' owner.
func TestPartitionSubBatchColumns(t *testing.T) {
	rt, err := NewRouter(ClusterConfig{Replicas: []string{"http://a:1", "http://b:2", "http://c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	var gs scatterScratch
	req := &batchRequest{op: batchOpRoute, m: 2, n: 4}
	for i := 0; i < 300; i++ {
		req.src, req.dst = append(req.src, i%256), append(req.dst, (i*37+5)%256)
	}
	subs, err := rt.partition(req, &gs)
	if err != nil {
		t.Fatal(err)
	}
	for _, sb := range subs {
		var wantSrc, wantDst []int
		for i, rep := range gs.assign {
			if int(rep) == sb.replica {
				if int(gs.localIdx[i]) != len(wantSrc) {
					t.Fatalf("pair %d: local index %d, want %d", i, gs.localIdx[i], len(wantSrc))
				}
				wantSrc, wantDst = append(wantSrc, req.src[i]), append(wantDst, req.dst[i])
			}
		}
		sub := new(batchRequest)
		if err := parseBatchBody(ctBatchBin, sb.body, sub); err != nil {
			t.Fatal(err)
		}
		if sb.pairs != len(wantSrc) || !slices.Equal(sub.src, wantSrc) || !slices.Equal(sub.dst, wantDst) {
			t.Fatalf("replica %d: sub-batch %d pairs src %v dst %v, want %v %v", sb.replica, sb.pairs, sub.src, sub.dst, wantSrc, wantDst)
		}
	}

	subs, err = rt.partition(&batchRequest{op: batchOpRoute, m: 2, n: 4}, &gs)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].pairs != 0 || subs[0].replica != rt.ring.Lookup(shardKey(Dims{M: 2, N: 4}, 0, 0), nil) {
		t.Fatalf("empty batch partitioned into %+v, want one empty sub-batch for the dims' owner", subs)
	}
	var sub batchRequest
	if err := parseBatchBody(ctBatchBin, subs[0].body, &sub); err != nil || len(sub.src) != 0 {
		t.Fatalf("empty sub-batch body: %+v, %v", sub, err)
	}
}

// TestPartitionMergeAllocsFlat: with a warm scratch, partitioning a
// batch and splicing its sub-answers allocates no more for 4,096 pairs
// than for 64: the owner table, sub-batch list, columns, bodies and the
// merged response all live in the scratch.
func TestPartitionMergeAllocsFlat(t *testing.T) {
	rt, err := NewRouter(ClusterConfig{Replicas: []string{"http://a:1", "http://b:2", "http://c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	top := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(3))
	allocs := func(pairs int) float64 {
		req := randomRouteBatch(rng, 3, 8, top.Order(), pairs)
		var gs scatterScratch
		answers := answerScatter(t, rt, top, req, &gs)
		return testing.AllocsPerRun(20, func() {
			if _, err := rt.partition(req, &gs); err != nil {
				t.Fatal(err)
			}
			if _, err := gs.spliceAnswers(req, answers); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Fatalf("partition+merge: %v allocs for 64 pairs, %v for 4096", small, large)
	}
}

// TestForwardBatchDecodeAllocsFlat: the router decodes a binary client
// body into a warm scatterScratch without allocating, at 64 pairs and
// at 4,096 — the columns reuse the scratch's storage.
func TestForwardBatchDecodeAllocsFlat(t *testing.T) {
	top := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(5))
	var gs scatterScratch
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
		if len(gs.req.src) != pairs {
			t.Fatalf("%d pairs: decoded %d", pairs, len(gs.req.src))
		}
	}
}

// --- scatter-gather -------------------------------------------------

// scatterBody builds one /batch request body covering op and codec,
// including the faults column for faultroute.
func scatterBody(t *testing.T, op, codec string, m, n int, faults, src, dst []int) (string, []byte) {
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

// TestRouterScatterByteExact is the merge-correctness pin: for every
// op and both codecs, a batch scattered across the fleet must come
// back byte-identical to the same batch answered whole by one replica.
func TestRouterScatterByteExact(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	const m, n = 2, 3
	var src, dst []int
	for i := 0; i < 48; i++ {
		src = append(src, i%96)
		dst = append(dst, (i*7+13)%96)
	}
	post := func(base, ct string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/batch", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}

	for _, op := range []string{"dist", "route", "paths", "faultroute"} {
		var faults []int
		if op == "faultroute" {
			faults = []int{2, 17}
		}
		for _, codec := range []string{"json", "bin"} {
			ct, body := scatterBody(t, op, codec, m, n, faults, src, dst)
			resp, viaRouter := post(ts.URL, ct, body)
			if resp.StatusCode != 200 {
				t.Fatalf("%s/%s: router status %d: %s", op, codec, resp.StatusCode, viaRouter)
			}
			if resp.Header.Get("X-Scatter") == "" {
				t.Errorf("%s/%s: batch of %d pairs was not scattered", op, codec, len(src))
			}
			direct, whole := post(fleet.URLs()[0], ct, body)
			if direct.StatusCode != 200 {
				t.Fatalf("%s/%s: direct status %d: %s", op, codec, direct.StatusCode, whole)
			}
			if !bytes.Equal(viaRouter, whole) {
				t.Errorf("%s/%s: scattered response differs from whole-batch response\nrouter: %q\ndirect: %q",
					op, codec, truncateForLog(viaRouter), truncateForLog(whole))
			}
		}
	}
	st := rt.Status()
	if st.SubbatchFanout < 2 || st.SubbatchPairs == 0 {
		t.Errorf("scatter counters inert: fanout %d, pairs %d", st.SubbatchFanout, st.SubbatchPairs)
	}
}

func truncateForLog(b []byte) []byte {
	if len(b) > 256 {
		return b[:256]
	}
	return b
}

// TestRouterScatterSurvivesKilledReplica: with replication 2, a
// replica dead at scatter time costs zero pairs — its sub-batches land
// on (or retry onto) the surviving owners and the merged response is
// still byte-exact.
func TestRouterScatterSurvivesKilledReplica(t *testing.T) {
	fleet := newTestFleet(t, 3)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs(), EjectAfter: 2})

	const m, n = 2, 3
	var src, dst []int
	for i := 0; i < 64; i++ {
		src = append(src, (i*5)%96)
		dst = append(dst, (i*11+7)%96)
	}
	ct, body := scatterBody(t, "route", "bin", m, n, nil, src, dst)

	// Reference response from a replica that will stay alive.
	want := func() []byte {
		resp, err := http.Post(fleet.URLs()[0]+"/batch", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("reference status %d: %s", resp.StatusCode, raw)
		}
		return raw
	}()

	// Kill replica 2 without telling the router: the first scatter that
	// assigns it pairs hits a refused connection and must retry those
	// sub-batches onto the survivors.
	if err := fleet.Kill(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/batch", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("batch %d: status %d with one replica down: %s", i, resp.StatusCode, raw)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("batch %d: response with a dead replica differs from reference", i)
		}
		var cols batchColumns
		if err := decodeBatchBinResponse(raw, batchOpRoute, len(src), &cols); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	st := rt.Status()
	if st.SubbatchRetries == 0 && rt.Healthy(2) {
		t.Error("dead replica neither triggered sub-batch retries nor got ejected")
	}
}

// TestRouterScatterRetriesCorruptOffsets: a replica answering a
// sub-batch with a 200 whose offset column runs past its nodes and
// back (off=[0,5,2,...]) is a corrupt replica, not a crash. The
// sub-batch is retried on another owner and the client still gets the
// whole batch's bytes, in both codecs.
func TestRouterScatterRetriesCorruptOffsets(t *testing.T) {
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
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
	urls := append([]string{corrupt.URL}, fleet.URLs()...)
	rt, ts := newTestRouter(t, ClusterConfig{Replicas: urls, EjectAfter: 1000})

	const m, n = 2, 3
	var src, dst []int
	for i := 0; i < 64; i++ {
		src = append(src, (i*5)%96)
		dst = append(dst, (i*11+7)%96)
	}
	for _, codec := range []string{"bin", "json"} {
		ct, body := scatterBody(t, "route", codec, m, n, nil, src, dst)
		var answers [2][]byte
		for k, base := range []string{fleet.URLs()[0], ts.URL} {
			resp, err := http.Post(base+"/batch", ct, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			answers[k], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s via %s: status %d: %s", codec, base, resp.StatusCode, answers[k])
			}
		}
		if !bytes.Equal(answers[1], answers[0]) {
			t.Fatalf("%s: answer through a corrupt replica differs from the whole batch's", codec)
		}
	}
	if st := rt.Status(); st.SubbatchRetries == 0 {
		t.Error("the corrupt replica's sub-batches were never retried")
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

// TestRouterScatterMetrics scrapes /metrics after a scattered batch
// and pins the new families.
func TestRouterScatterMetrics(t *testing.T) {
	fleet := newTestFleet(t, 2)
	_, ts := newTestRouter(t, ClusterConfig{Replicas: fleet.URLs()})

	var src, dst []int
	for i := 0; i < 32; i++ {
		src = append(src, i)
		dst = append(dst, (i+9)%48)
	}
	ct, body := scatterBody(t, "route", "bin", 2, 3, nil, src, dst)
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
	// Both replicas served one sub-batch of the 32-pair scatter.
	if !strings.Contains(text, "hbd_router_subbatch_fanout_total 2\n") {
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
