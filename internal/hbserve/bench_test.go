package hbserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// Serving-hot-path benchmarks (EXPERIMENTS.md E-SV): the cache in
// isolation and the full handler stack. Future PRs regress against
// these before touching the serving path.

func BenchmarkRouteCache(b *testing.B) {
	hb := core.MustNew(2, 4)
	compute := func(u, v int) func() ([]byte, error) {
		return func() ([]byte, error) {
			return marshalBody(routeResponse{U: u, V: v, Path: hb.Route(u, v)})
		}
	}

	b.Run("hit", func(b *testing.B) {
		c := NewRouteCache(1024, 0)
		key := cacheKey("route", Dims{M: 2, N: 4}, 0, 200, false)
		c.GetOrCompute(key, compute(0, 200))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.GetOrCompute(key, compute(0, 200))
		}
	})

	b.Run("miss", func(b *testing.B) {
		c := NewRouteCache(1024, 0)
		order := hb.Order()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct key per iteration: every lookup computes.
			u, v := i%order, (i*7+1)%order
			if u == v {
				v = (v + 1) % order
			}
			c.GetOrCompute(fmt.Sprintf("bench|%d|%d|%d", i, u, v), compute(u, v))
		}
	})

	b.Run("concurrent-singleflight", func(b *testing.B) {
		// All goroutines hammer one hot key: first computes, rest either
		// coalesce onto the flight or hit.
		c := NewRouteCache(1024, 0)
		key := cacheKey("route", Dims{M: 2, N: 4}, 3, 100, false)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.GetOrCompute(key, compute(3, 100))
			}
		})
	})
}

func BenchmarkHandlerRoute(b *testing.B) {
	s := NewServer(Config{})
	handler := s.Handler()

	b.Run("warm", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, "/route?m=2&n=4&u=0&v=200", nil)
		handler.ServeHTTP(httptest.NewRecorder(), req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
		}
	})

	b.Run("cold", func(b *testing.B) {
		// CacheSize -1 disables memoisation: every request renders.
		cold := NewServer(Config{CacheSize: -1}).Handler()
		req := httptest.NewRequest(http.MethodGet, "/route?m=2&n=4&u=0&v=200", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			cold.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}

// BenchmarkHandlerBatch sends a binary 341-pair HB(3,8) route batch —
// the sub-batch size the router sends each of three replicas for a
// 1024-pair client batch — through Server.Handler() with a reused body
// reader and response writer: decode, route kernel and encode, at the
// replica's own layer. It cycles through 64 distinct seeded batches.
func BenchmarkHandlerBatch(b *testing.B) {
	const m, n, pairs, batches = 3, 8, 341, 64
	h := NewServer(Config{}).Handler()
	top := core.MustNew(m, n)
	rng := rand.New(rand.NewSource(1))
	replays := make([]*batchReplay, batches)
	for k := range replays {
		req := randomRouteBatch(rng, m, n, top.Order(), pairs)
		replays[k] = newBatchReplay(h, ctBatchBin, appendBatchBinRequest(nil, req.op, m, n, nil, req.src, req.dst))
		if code := replays[k].post(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := replays[i%batches].post(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}

// BenchmarkRouterForward measures the router's own per-request
// overhead — shard lookup, pooled buffers, the round trip on a pooled
// replica connection, relay — in front of a live in-process replica.
// On a 2-vCPU guest (Go 1.24, -count 6), forwarding over net/http.Client
// took 53–69 µs and 147 allocs/op for single and 128–145 µs and 161
// allocs/op for batch64; over the router's own connection pool it takes
// 28–43 µs and 76 allocs/op, and 100–130 µs and 103 allocs/op.
func BenchmarkRouterForward(b *testing.B) {
	replica := httptest.NewServer(NewServer(Config{}).Handler())
	defer replica.Close()
	rt, err := NewRouter(ClusterConfig{Replicas: []string{replica.URL}})
	if err != nil {
		b.Fatal(err)
	}
	handler := rt.Handler()

	b.Run("single", func(b *testing.B) {
		req := httptest.NewRequest(http.MethodGet, "/route?m=2&n=4&u=0&v=200", nil)
		handler.ServeHTTP(httptest.NewRecorder(), req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
		}
	})

	b.Run("batch64", func(b *testing.B) {
		src := make([]int, 64)
		dst := make([]int, 64)
		for i := range src {
			src[i], dst[i] = i%96, (i*7+5)%96
		}
		body, err := EncodeBatchBinRequest("route", 2, 3, nil, src, dst)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
			req.Header.Set("Content-Type", ctBatchBin)
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

// BenchmarkScatterPartition times the router's per-batch bookkeeping
// with no I/O: partitioning a 1024-pair HB(3,8) route batch over three
// replicas (owner sets, least-loaded choice, sub-batch columns and
// bodies), validating each sub-answer the replicas sent, and splicing
// their frames into the binary response. It cycles through 256 distinct seeded batches, so the
// branch predictor cannot learn one batch's keys the way it would
// replaying a single batch.
func BenchmarkScatterPartition(b *testing.B) {
	const m, n, pairs, batches = 3, 8, 1024, 256
	rt, err := NewRouter(ClusterConfig{Replicas: []string{
		"http://127.0.0.1:47311", "http://127.0.0.1:47312", "http://127.0.0.1:47313"}})
	if err != nil {
		b.Fatal(err)
	}
	top := core.MustNew(m, n)
	rng := rand.New(rand.NewSource(1))
	var gs scatterScratch
	reqs := make([]*batchRequest, batches)
	answers := make([][][]byte, batches)
	for k := range reqs {
		reqs[k] = randomRouteBatch(rng, m, n, top.Order(), pairs)
		answers[k] = answerScatter(b, rt, top, reqs[k], &gs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var out []byte
	for i := 0; i < b.N; i++ {
		req := reqs[i%batches]
		if _, err := rt.partition(req, &gs); err != nil {
			b.Fatal(err)
		}
		if out, err = gs.spliceAnswers(req, answers[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
	b.StopTimer()
	checkMergedWhole(b, top, reqs[(b.N-1)%batches], out)
}

// randomRouteBatch draws a binary-codec route batch of uniform pairs on
// HB(m,n).
func randomRouteBatch(rng *rand.Rand, m, n, order, pairs int) *batchRequest {
	req := &batchRequest{codec: "bin", op: batchOpRoute, m: m, n: n,
		src: make([]int, pairs), dst: make([]int, pairs)}
	for i := range req.src {
		req.src[i], req.dst[i] = rng.Intn(order), rng.Intn(order)
	}
	return req
}

// answerScatter partitions req on gs, answers every sub-batch body in
// process, and checks that splicing the answers gives the whole
// batch's response. It returns the answers, indexed by replica, for
// replaying the merge.
func answerScatter(tb testing.TB, rt *Router, top core.Topology, req *batchRequest, gs *scatterScratch) [][]byte {
	tb.Helper()
	subs, err := rt.partition(req, gs)
	if err != nil {
		tb.Fatal(err)
	}
	answers := make([][]byte, len(rt.replicas))
	for _, sb := range subs {
		sub := new(batchRequest)
		if err := parseBatchBody(ctBatchBin, sb.body, sub); err != nil {
			tb.Fatal(err)
		}
		answers[sb.replica] = routeAnswer(tb, top, sub)
	}
	out, err := gs.spliceAnswers(req, answers)
	if err != nil {
		tb.Fatal(err)
	}
	checkMergedWhole(tb, top, req, out)
	return answers
}

// spliceAnswers is the router's gather after partitioning req on gs:
// it validates each replica's answer (nil for a replica without a
// sub-batch) and merges them in req's codec.
func (gs *scatterScratch) spliceAnswers(req *batchRequest, answers [][]byte) ([]byte, error) {
	gs.frames = resized(gs.frames, len(answers))
	clear(gs.frames)
	for rep, raw := range answers {
		if raw == nil {
			continue
		}
		var err error
		if gs.frames[rep], err = splitBatchBinResponse(raw, req.op, int(gs.count[rep])); err != nil {
			return nil, err
		}
	}
	return gs.mergeAnswer(req)
}

// routeAnswer is a replica's binary answer to the route batch req.
func routeAnswer(tb testing.TB, top core.Topology, req *batchRequest) []byte {
	tb.Helper()
	var bs core.BatchScratch
	if err := core.RouteBatch(top, core.BatchRoute, req.src, req.dst, 1, &bs); err != nil {
		tb.Fatal(err)
	}
	return appendBatchBin(nil, &batchColumns{op: batchOpRoute, status: bs.Status, dist: bs.Dist, off: bs.Off, nodes: bs.Nodes})
}

// checkMergedWhole fails unless merged is the binary response to req's
// whole batch answered at once.
func checkMergedWhole(tb testing.TB, top core.Topology, req *batchRequest, merged []byte) {
	tb.Helper()
	if !bytes.Equal(merged, routeAnswer(tb, top, req)) {
		tb.Fatal("merged sub-answers differ from the whole batch's")
	}
}
