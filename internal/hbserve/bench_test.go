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

// BenchmarkHandlerBatch sends a binary 1024-pair HB(3,8) route batch —
// the body the router forwards whole to one replica in perfbench's
// batch-router — through Server.Handler() with a reused body reader and
// response writer: decode, route kernel and encode, at the replica's
// own layer. It cycles through 64 distinct seeded batches.
func BenchmarkHandlerBatch(b *testing.B) {
	const m, n, pairs, batches = 3, 8, 1024, 64
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
//
// The 3rep cases send one HB(3,8) batch through a router in front of
// three replicas: 64 Theorem 5 paths pairs, and 1024 faultroute pairs
// around 6 faults. The router forwards each batch whole to one replica,
// which answers these two ops pair by pair, so they time what a single
// large batch costs when no other replica shares its work.
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
		benchBatchForward(b, handler, body)
	})

	var urls []string
	for i := 0; i < 3; i++ {
		replica := httptest.NewServer(NewServer(Config{}).Handler())
		defer replica.Close()
		urls = append(urls, replica.URL)
	}
	rt3, err := NewRouter(ClusterConfig{Replicas: urls})
	if err != nil {
		b.Fatal(err)
	}
	order := core.MustNew(3, 8).Order()
	for _, c := range []struct {
		op     string
		pairs  int
		faults []int
	}{
		{"paths", 64, nil},
		{"faultroute", 1024, []int{11, 222, 3333, 4444, 5555, 16000}},
	} {
		b.Run(fmt.Sprintf("%s%d-3rep", c.op, c.pairs), func(b *testing.B) {
			req := randomRouteBatch(rand.New(rand.NewSource(1)), 3, 8, order, c.pairs)
			body, err := EncodeBatchBinRequest(c.op, 3, 8, c.faults, req.src, req.dst)
			if err != nil {
				b.Fatal(err)
			}
			benchBatchForward(b, rt3.Handler(), body)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.pairs), "ns/pair")
		})
	}
}

// benchBatchForward posts one binary /batch body through handler b.N
// times.
func benchBatchForward(b *testing.B, handler http.Handler, body []byte) {
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

// BenchmarkHandlerEstimate times one /estimate request through the
// handler: exact (one BFS) on the two largest instances under
// maxExactOrder, and the default sampled answer (live=1) on the same
// dims, which the exact answer's per-request cost is measured against.
func BenchmarkHandlerEstimate(b *testing.B) {
	h := NewServer(Config{}).Handler()
	for _, q := range []string{"m=1&n=8", "m=6&n=4", "m=1&n=8&live=1", "m=6&n=4&live=1"} {
		b.Run(q, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, "/estimate?"+q, nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != 200 {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}
