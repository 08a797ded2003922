package hbserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultroute"
)

// batchJSONResp mirrors the columnar JSON response for decoding in
// tests.
type batchJSONResp struct {
	M       int     `json:"m"`
	N       int     `json:"n"`
	Op      string  `json:"op"`
	Count   int     `json:"count"`
	Faults  []int   `json:"faults"`
	Status  []uint8 `json:"status"`
	Dist    []int32 `json:"dist"`
	Off     []int32 `json:"off"`
	PairOff []int32 `json:"pair_off"`
	PathOff []int32 `json:"path_off"`
	Nodes   []int   `json:"nodes"`
}

func postBatch(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/batch", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// batchPairs is the shared test workload: a spread of valid pairs plus
// one out-of-range pair and one equal pair, exercising every status.
func batchPairs(order int) (src, dst []int) {
	for i := 0; i < 40; i++ {
		src = append(src, (i*7)%order)
		dst = append(dst, (i*i*13+5)%order)
	}
	src = append(src, 3, order+5, 9)
	dst = append(dst, 3, 0, 9) // equal pair, bad src, equal pair
	return src, dst
}

func jsonBatchBody(t *testing.T, op string, m, n int, faults, src, dst []int) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"m": m, "n": n, "op": op, "faults": faults, "src": src, "dst": dst,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func appendU32Frame(out []byte, vals []int) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(4*len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

func binBatchBody(op uint8, m, n int, faults, src, dst []int) []byte {
	le := binary.LittleEndian
	out := le.AppendUint32(nil, 24)
	out = le.AppendUint32(out, batchBinMagic)
	out = le.AppendUint16(out, batchBinVersion)
	out = append(out, op, 0)
	out = le.AppendUint32(out, uint32(m))
	out = le.AppendUint32(out, uint32(n))
	out = le.AppendUint32(out, uint32(len(src)))
	out = le.AppendUint32(out, uint32(len(faults)))
	out = appendU32Frame(out, faults)
	out = appendU32Frame(out, src)
	out = appendU32Frame(out, dst)
	return out
}

// decodeBinResp splits a binary response into its header fields and
// column frames.
func decodeBinResp(t *testing.T, body []byte) (op uint8, npairs, totalPaths int, frames [][]byte) {
	t.Helper()
	hdr, rest, err := nextFrame(body)
	if err != nil {
		t.Fatalf("response header: %v", err)
	}
	if len(hdr) != 16 {
		t.Fatalf("response header is %d bytes, want 16", len(hdr))
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr); m != batchBinMagic {
		t.Fatalf("response magic %#x", m)
	}
	if v := le.Uint16(hdr[4:]); v != batchBinVersion {
		t.Fatalf("response version %d", v)
	}
	op = hdr[6]
	npairs = int(le.Uint32(hdr[8:]))
	totalPaths = int(le.Uint32(hdr[12:]))
	for len(rest) > 0 {
		var f []byte
		if f, rest, err = nextFrame(rest); err != nil {
			t.Fatalf("response frame: %v", err)
		}
		frames = append(frames, f)
	}
	return op, npairs, totalPaths, frames
}

func frameInt32s(f []byte) []int32 {
	out := make([]int32, len(f)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(f[4*i:]))
	}
	return out
}

func frameInts(f []byte) []int {
	out := make([]int, len(f)/4)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(f[4*i:]))
	}
	return out
}

// TestBatchJSONRoundTrip answers every op over the JSON codec and
// checks each pair against the single-query engines.
func TestBatchJSONRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	src, dst := batchPairs(hb.Order())
	faults := []int{5, 17}

	for _, op := range []string{"dist", "route", "paths", "faultroute"} {
		t.Run(op, func(t *testing.T) {
			var f []int
			if op == "faultroute" {
				f = faults
			}
			resp, body := postBatch(t, ts.URL, ctJSON, jsonBatchBody(t, op, 2, 3, f, src, dst))
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != ctJSON {
				t.Fatalf("Content-Type %q", ct)
			}
			var r batchJSONResp
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			if r.Op != op || r.Count != len(src) || len(r.Status) != len(src) {
				t.Fatalf("envelope op=%q count=%d status=%d, want %q/%d", r.Op, r.Count, len(r.Status), op, len(src))
			}
			checkBatchColumns(t, hb, op, f, src, dst, &r)
		})
	}
}

// checkBatchColumns verifies a decoded columnar answer pair-by-pair
// against the single-query oracles.
func checkBatchColumns(t *testing.T, hb *core.HyperButterfly, op string, faults, src, dst []int, r *batchJSONResp) {
	t.Helper()
	var fr *faultroute.Router
	if op == "faultroute" {
		var err error
		if fr, err = faultroute.New(hb, faults); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Faults, faults) {
			t.Fatalf("faults echoed as %v, want %v", r.Faults, faults)
		}
	}
	for i := range src {
		u, v := src[i], dst[i]
		if !hb.ValidNode(u) || !hb.ValidNode(v) {
			if r.Status[i] != core.BatchBadNode {
				t.Fatalf("pair %d (%d,%d): status %d, want bad-node", i, u, v, r.Status[i])
			}
			continue
		}
		switch op {
		case "dist":
			if r.Status[i] != core.BatchOK || int(r.Dist[i]) != hb.Distance(u, v) {
				t.Fatalf("pair %d: dist %d status %d, want %d", i, r.Dist[i], r.Status[i], hb.Distance(u, v))
			}
		case "route":
			want := hb.Route(u, v)
			got := r.Nodes[r.Off[i]:r.Off[i+1]]
			if r.Status[i] != core.BatchOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("pair %d (%d,%d): route %v, want %v", i, u, v, got, want)
			}
			if int(r.Dist[i]) != hb.Distance(u, v) {
				t.Fatalf("pair %d: dist %d, want %d", i, r.Dist[i], hb.Distance(u, v))
			}
		case "paths":
			want, err := hb.DisjointPaths(u, v)
			if err != nil { // equal endpoints
				if r.Status[i] != core.BatchFailed {
					t.Fatalf("pair %d (%d,%d): status %d, want failed", i, u, v, r.Status[i])
				}
				if r.PairOff[i] != r.PairOff[i+1] {
					t.Fatalf("pair %d: failed pair owns paths", i)
				}
				continue
			}
			lo, hi := r.PairOff[i], r.PairOff[i+1]
			if int(hi-lo) != len(want) {
				t.Fatalf("pair %d: %d paths, want %d", i, hi-lo, len(want))
			}
			for p := lo; p < hi; p++ {
				got := r.Nodes[r.PathOff[p]:r.PathOff[p+1]]
				if !reflect.DeepEqual(got, want[p-lo]) {
					t.Fatalf("pair %d path %d: %v, want %v", i, p-lo, got, want[p-lo])
				}
			}
		case "faultroute":
			want, err := fr.Route(u, v)
			got := r.Nodes[r.Off[i]:r.Off[i+1]]
			if err != nil {
				if r.Status[i] != core.BatchFailed || len(got) != 0 {
					t.Fatalf("pair %d (%d,%d): status %d nodes %v, want failed/empty", i, u, v, r.Status[i], got)
				}
				continue
			}
			if r.Status[i] != core.BatchOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("pair %d (%d,%d): route %v, want %v", i, u, v, got, want)
			}
		}
	}
}

// TestBatchBinRoundTrip answers the same workload over the binary codec
// and requires column-for-column agreement with the JSON answer.
func TestBatchBinRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	hb := core.MustNew(2, 3)
	src, dst := batchPairs(hb.Order())
	faults := []int{5, 17}

	for name, op := range batchOpCodes {
		t.Run(name, func(t *testing.T) {
			var f []int
			if op == batchOpFaultRoute {
				f = faults
			}
			resp, body := postBatch(t, ts.URL, ctBatchBin, binBatchBody(op, 2, 3, f, src, dst))
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != ctBatchBin {
				t.Fatalf("Content-Type %q", ct)
			}
			gotOp, npairs, totalPaths, frames := decodeBinResp(t, body)
			if gotOp != op || npairs != len(src) {
				t.Fatalf("header op=%d npairs=%d, want %d/%d", gotOp, npairs, op, len(src))
			}
			r := batchJSONResp{M: 2, N: 3, Op: name, Count: npairs, Faults: f, Status: frames[0]}
			switch op {
			case batchOpDist:
				r.Dist = frameInt32s(frames[1])
			case batchOpRoute:
				r.Dist, r.Off, r.Nodes = frameInt32s(frames[1]), frameInt32s(frames[2]), frameInts(frames[3])
			case batchOpFaultRoute:
				r.Off, r.Nodes = frameInt32s(frames[1]), frameInts(frames[2])
			case batchOpPaths:
				r.PairOff, r.PathOff, r.Nodes = frameInt32s(frames[1]), frameInt32s(frames[2]), frameInts(frames[3])
				if totalPaths != len(r.PathOff)-1 {
					t.Fatalf("header totalPaths %d, path_off has %d", totalPaths, len(r.PathOff)-1)
				}
			}
			checkBatchColumns(t, hb, name, f, src, dst, &r)
		})
	}
}

// TestBatchMalformed covers the 400/405/415 surface of both codecs.
func TestBatchMalformed(t *testing.T) {
	_, ts := newTestServer(t)
	good := binBatchBody(batchOpRoute, 2, 3, nil, []int{0, 1}, []int{5, 9})

	cases := []struct {
		name string
		ct   string
		body []byte
		code int
	}{
		{"bad json", ctJSON, []byte(`{"src": [1,`), 400},
		{"unknown op", ctJSON, []byte(`{"op":"teleport","src":[1],"dst":[2]}`), 400},
		{"column mismatch", ctJSON, []byte(`{"src":[1,2],"dst":[3]}`), 400},
		{"faults on route", ctJSON, []byte(`{"op":"route","faults":[1],"src":[1],"dst":[2]}`), 400},
		{"fault out of range", ctJSON, []byte(`{"op":"faultroute","faults":[99999],"src":[1],"dst":[2]}`), 400},
		{"bad dims", ctJSON, []byte(`{"m":-3,"n":1,"src":[1],"dst":[2]}`), 400},
		{"unknown content type", "text/csv", []byte("1,2"), 415},
		{"bin empty", ctBatchBin, nil, 400},
		{"bin short header", ctBatchBin, good[:10], 400},
		{"bin bad magic", ctBatchBin, func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[4:], 0xDEADBEEF)
			return b
		}(), 400},
		{"bin wrong version", ctBatchBin, func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(b[8:], batchBinVersion+7)
			return b
		}(), 400},
		{"bin unknown op", ctBatchBin, func() []byte {
			b := append([]byte(nil), good...)
			b[10] = 42
			return b
		}(), 400},
		{"bin truncated frame", ctBatchBin, good[:len(good)-3], 400},
		{"bin trailing bytes", ctBatchBin, append(append([]byte(nil), good...), 0xFF), 400},
		{"bin column shorter than header", ctBatchBin, func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[20:], 3) // npairs 3, frames carry 2
			return b
		}(), 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postBatch(t, ts.URL, tc.ct, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.code, body)
			}
		})
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/batch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /batch: status %d, want 405", resp.StatusCode)
	}
}

// TestParseBatchBodyReuseMatchesFresh: a body decoded into a request
// that last held another body equals the body decoded into a zero
// request. encoding/json leaves an absent field, and a null inside an
// array, as it finds them, so a JSON decode that reused the previous
// columns would echo the previous request's node ids.
func TestParseBatchBodyReuseMatchesFresh(t *testing.T) {
	bin := binBatchBody(batchOpFaultRoute, 2, 3, []int{4, 6}, []int{0, 1, 2}, []int{5, 9, 11})
	cases := []struct {
		prevCT string
		prev   string
		next   string
	}{
		{ctJSON, `{"src":[5],"dst":[1]}`, `{"m":3,"n":8,"op":"route","src":[null],"dst":[0]}`},
		{ctJSON, `{"src":[5],"dst":[1]}`, `{"m":3,"n":8,"op":"route","src":[0],"dst":[null]}`},
		{ctJSON, `{"op":"faultroute","faults":[3,17],"src":[1],"dst":[2]}`, `{"op":"faultroute","faults":[null],"src":[1],"dst":[2]}`},
		{ctJSON, `{"op":"faultroute","faults":[3,17],"src":[1],"dst":[2]}`, `{"op":"route","src":[1],"dst":[2]}`},
		{ctBatchBin, string(bin), `{"src":[null,null,null],"dst":[null,0,null]}`},
		{ctBatchBin, string(bin), `{"op":"faultroute","src":[1],"dst":[2]}`},
	}
	for _, tc := range cases {
		var reused, fresh batchRequest
		if err := parseBatchBody(tc.prevCT, []byte(tc.prev), &reused); err != nil {
			t.Fatalf("previous body %q: %v", tc.prev, err)
		}
		errReused := parseBatchBody(ctJSON, []byte(tc.next), &reused)
		errFresh := parseBatchBody(ctJSON, []byte(tc.next), &fresh)
		if errReused != nil || errFresh != nil {
			t.Fatalf("body %q: reused %v, fresh %v", tc.next, errReused, errFresh)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("after %q, body %q decoded to %+v, fresh %+v", tc.prev, tc.next, reused, fresh)
		}
	}
}

// TestBatchCacheByteIdentity repeats a small batch and requires the
// repeat to return byte-identical bodies with the same Content-Type, on
// both codecs.
func TestBatchCacheByteIdentity(t *testing.T) {
	_, ts := newTestServer(t)
	src, dst := []int{0, 5, 9}, []int{90, 4, 77}

	bodies := map[string][]byte{
		ctJSON:     jsonBatchBody(t, "route", 2, 3, nil, src, dst),
		ctBatchBin: binBatchBody(batchOpRoute, 2, 3, nil, src, dst),
	}
	for ct, reqBody := range bodies {
		resp1, body1 := postBatch(t, ts.URL, ct, reqBody)
		resp2, body2 := postBatch(t, ts.URL, ct, reqBody)
		if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
			t.Fatalf("%s: status %d/%d", ct, resp1.StatusCode, resp2.StatusCode)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s: hit body differs from miss body", ct)
		}
		if ct1, ct2 := resp1.Header.Get("Content-Type"), resp2.Header.Get("Content-Type"); ct1 != ct || ct2 != ct {
			t.Fatalf("%s: Content-Type %q then %q", ct, ct1, ct2)
		}
	}

	// The two codecs must not alias each other's cache entries.
	respJ, _ := postBatch(t, ts.URL, ctJSON, bodies[ctJSON])
	if respJ.Header.Get("Content-Type") != ctJSON {
		t.Fatal("JSON request answered from the binary entry")
	}

}

// TestBatchMetricsScrape drives both codecs and checks the per-codec
// batch families appear in /metrics with the right counts.
func TestBatchMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t)
	src, dst := []int{0, 5, 9, 33}, []int{90, 4, 77, 2}
	if resp, body := postBatch(t, ts.URL, ctJSON, jsonBatchBody(t, "dist", 2, 3, nil, src, dst)); resp.StatusCode != 200 {
		t.Fatalf("json batch: %d %s", resp.StatusCode, body)
	}
	if resp, body := postBatch(t, ts.URL, ctBatchBin, binBatchBody(batchOpRoute, 2, 3, nil, src, dst)); resp.StatusCode != 200 {
		t.Fatalf("bin batch: %d %s", resp.StatusCode, body)
	}

	code, scrape := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		fmt.Sprintf(`hbd_batch_requests_total{codec="json",op="dist"} 1`),
		fmt.Sprintf(`hbd_batch_requests_total{codec="bin",op="route"} 1`),
		fmt.Sprintf(`hbd_batch_pairs_total{codec="json",op="dist"} %d`, len(src)),
		fmt.Sprintf(`hbd_batch_pairs_total{codec="bin",op="route"} %d`, len(src)),
		`hbd_batch_op_seconds_count{op="dist"} 1`,
		`hbd_batch_op_seconds_count{op="route"} 1`,
		`hbd_batch_op_seconds_bucket{op="route",le="+Inf"} 1`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestBatchEmpty: zero pairs is a valid request on both codecs.
func TestBatchEmpty(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postBatch(t, ts.URL, ctJSON, []byte(`{"op":"dist","src":[],"dst":[]}`))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r batchJSONResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Count != 0 || len(r.Status) != 0 {
		t.Fatalf("empty batch answered count=%d", r.Count)
	}
	resp, body = postBatch(t, ts.URL, ctBatchBin, binBatchBody(batchOpDist, 2, 3, nil, nil, nil))
	if resp.StatusCode != 200 {
		t.Fatalf("bin status %d: %s", resp.StatusCode, body)
	}
	if _, npairs, _, _ := decodeBinResp(t, body); npairs != 0 {
		t.Fatalf("bin empty batch npairs %d", npairs)
	}
}

// TestBatchImplicitTier routes a batch on dims served by the pool's
// label-arithmetic instance and checks it against label arithmetic.
func TestBatchImplicitTier(t *testing.T) {
	s, ts := newTestServer(t)
	top, err := s.pool.Get(Dims{M: 2, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := batchPairs(top.Order())
	resp, body := postBatch(t, ts.URL, ctJSON, jsonBatchBody(t, "route", 2, 3, nil, src, dst))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r batchJSONResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	checkBatchColumns(t, core.MustNew(2, 3), "route", nil, src, dst, &r)
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so a handler's allocations can be counted without a
// recorder's buffer growing with the response.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(p), nil
}

// batchReplay posts one /batch body through a handler again and again
// with a reused request, body reader and response writer.
type batchReplay struct {
	h    http.Handler
	req  *http.Request
	body *bytes.Reader
	raw  []byte
	w    discardWriter
}

func newBatchReplay(h http.Handler, ct string, raw []byte) *batchReplay {
	br := &batchReplay{h: h, body: bytes.NewReader(raw), raw: raw, w: discardWriter{header: http.Header{}}}
	br.req = httptest.NewRequest(http.MethodPost, "/batch", nil)
	br.req.Header.Set("Content-Type", ct)
	br.req.Body = io.NopCloser(br.body)
	return br
}

// post sends the body once and returns the status.
func (br *batchReplay) post() int {
	br.body.Reset(br.raw)
	clear(br.w.header)
	br.w.code = 0
	br.h.ServeHTTP(&br.w, br.req)
	return br.w.code
}

// TestHandleBatchAllocsFlat: once warm, the replica's /batch handler
// allocates as often for a 4,096-pair binary route batch as for a
// 64-pair one. The body, the decoded columns, the kernel's columns and
// the response all live in the pooled scratch; what remains is
// per-request HTTP plumbing.
func TestHandleBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	h := NewServer(Config{BatchWorkers: 1}).Handler()
	top := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(9))
	replays := map[int]*batchReplay{}
	for _, pairs := range []int{4096, 64} {
		req := randomRouteBatch(rng, 3, 8, top.Order(), pairs)
		replays[pairs] = newBatchReplay(h, ctBatchBin, appendBatchBinRequest(nil, req.op, req.m, req.n, nil, req.src, req.dst))
		if code := replays[pairs].post(); code != http.StatusOK {
			t.Fatalf("%d pairs: status %d", pairs, code) // warm the pools
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
		t.Fatalf("/batch handler: %v allocs for 64 pairs, %v for 4096", allocs[64], allocs[4096])
	}
}

// TestPutBatchScratchDropsLargeBody: a scratch whose body buffer grew
// past maxPooledBody goes back to the pool without that buffer, and one
// within the bound keeps it.
func TestPutBatchScratchDropsLargeBody(t *testing.T) {
	for _, size := range []int{maxPooledBody / 2, 2 * maxPooledBody} {
		sc := new(batchScratch)
		sc.body.Grow(size)
		want := sc.body.Cap()
		if size > maxPooledBody {
			want = 0
		}
		putBatchScratch(sc)
		if got := sc.body.Cap(); got != want {
			t.Errorf("%d-byte body: pooled with capacity %d, want %d", size, got, want)
		}
	}
}
