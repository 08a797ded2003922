package hbserve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewRouteCache(64, 4)
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("v"), nil }
	v, hit, err := c.GetOrCompute("k", compute)
	if err != nil || hit || string(v) != "v" {
		t.Fatalf("first get: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute("k", compute)
	if err != nil || !hit || string(v) != "v" {
		t.Fatalf("second get: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and deterministic.
	c := NewRouteCache(2, 1)
	fill := func(k string) {
		c.GetOrCompute(k, func() ([]byte, error) { return []byte(k), nil })
	}
	fill("a")
	fill("b")
	fill("a") // refresh a; b is now oldest
	fill("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	_, hit, _ := c.GetOrCompute("a", func() ([]byte, error) { return nil, errors.New("should not run") })
	if !hit {
		t.Error("a was evicted despite being refreshed")
	}
	recomputed := false
	c.GetOrCompute("b", func() ([]byte, error) { recomputed = true; return []byte("b"), nil })
	if !recomputed {
		t.Error("b survived eviction")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewRouteCache(8, 1)
	boom := errors.New("boom")
	_, _, err := c.GetOrCompute("k", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	ran := false
	_, hit, err := c.GetOrCompute("k", func() ([]byte, error) { ran = true; return []byte("ok"), nil })
	if hit || !ran || err != nil {
		t.Errorf("error was cached: hit=%v ran=%v err=%v", hit, ran, err)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewRouteCache(8, 1)
	_, _, err := c.GetOrCompute("k", func() ([]byte, error) { panic("kaboom") })
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("kaboom")) {
		t.Fatalf("err %v", err)
	}
	// The flight entry must be gone: a retry computes fresh.
	v, hit, err := c.GetOrCompute("k", func() ([]byte, error) { return []byte("ok"), nil })
	if hit || err != nil || string(v) != "ok" {
		t.Errorf("retry after panic: v=%q hit=%v err=%v", v, hit, err)
	}
}

// TestSingleflight launches many concurrent gets for one cold key and
// asserts the computation ran exactly once with everyone receiving its
// bytes.
func TestSingleflight(t *testing.T) {
	c := NewRouteCache(8, 1)
	var calls atomic.Int64
	gate := make(chan struct{})
	const goroutines = 64
	results := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("cold", func() ([]byte, error) {
				calls.Add(1)
				<-gate // hold the flight open so others pile up
				return []byte("shared"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let the pile-up form, then release the one computation.
	for {
		_, _, dedups := c.Stats()
		if dedups >= goroutines/2 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times", n)
	}
	for i, v := range results {
		if string(v) != "shared" {
			t.Errorf("goroutine %d got %q", i, v)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewRouteCache(-1, 2)
	calls := 0
	for i := 0; i < 3; i++ {
		_, hit, _ := c.GetOrCompute("k", func() ([]byte, error) { calls++; return []byte("v"), nil })
		if hit {
			t.Error("hit with caching disabled")
		}
	}
	if calls != 3 || c.Len() != 0 {
		t.Errorf("calls=%d len=%d", calls, c.Len())
	}
}

func TestPoolLazyBuildAndEviction(t *testing.T) {
	p := &Pool{Max: 2}
	a, err := p.Get(Dims{M: 1, N: 3})
	if err != nil || a == nil {
		t.Fatal(err)
	}
	if a2, _ := p.Get(Dims{M: 1, N: 3}); a2 != a {
		t.Error("second Get rebuilt the instance")
	}
	p.Get(Dims{M: 2, N: 3})
	p.Get(Dims{M: 0, N: 3}) // evicts HB(1,3), the least recently used...
	if p.Len() != 2 {
		t.Fatalf("len %d, want 2", p.Len())
	}
	if p.Evictions() != 1 {
		t.Errorf("evictions %d, want 1", p.Evictions())
	}
	if a3, _ := p.Get(Dims{M: 1, N: 3}); a3 == a {
		t.Error("evicted instance was still resident")
	}
}

func TestPoolRejectsOversized(t *testing.T) {
	p := &Pool{MaxOrder: 1000}
	if _, err := p.Get(Dims{M: 3, N: 8}); err == nil {
		t.Error("accepted an instance over MaxOrder")
	}
	if _, err := p.Get(Dims{M: -1, N: 3}); err == nil {
		t.Error("accepted m=-1")
	}
	if _, err := p.Get(Dims{M: 1, N: 2}); err == nil {
		t.Error("accepted n=2")
	}
	if p.Len() != 0 {
		t.Errorf("rejected dims left %d residents", p.Len())
	}
}

// TestPoolImplicitTier pins the one-cap order policy: up to MaxOrder
// the pool builds every instance, above it the pool rejects.
func TestPoolImplicitTier(t *testing.T) {
	p := &Pool{MaxOrder: 20000}
	for _, d := range []Dims{{M: 1, N: 3}, {M: 3, N: 8}} { // orders 48 and 16384
		hb, err := p.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := d.N << uint(d.M+d.N); hb.Order() != want {
			t.Errorf("%v order %d, want %d", d, hb.Order(), want)
		}
	}
	if _, err := p.Get(Dims{M: 4, N: 9}); err == nil {
		t.Error("accepted order 9*2^13 over MaxOrder")
	}
}

func TestPoolConcurrentGet(t *testing.T) {
	p := &Pool{Max: 4}
	var wg sync.WaitGroup
	instances := make([]interface{}, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hb, err := p.Get(Dims{M: 2, N: 3})
			if err != nil {
				t.Error(err)
			}
			instances[i] = hb
		}(i)
	}
	wg.Wait()
	for i := 1; i < 32; i++ {
		if instances[i] != instances[0] {
			t.Fatal("concurrent Gets produced distinct instances")
		}
	}
}

// TestPoolErrorEntriesNotResident: a failed construction must not stay
// resident — before the fix the entry kept built=true with top=nil, so
// it counted in Len, occupied an LRU slot that could evict a real
// instance, and pinned the error for every later Get of those dims.
func TestPoolErrorEntriesNotResident(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	p := &Pool{Max: 2, construct: func(d Dims) (*core.HyperButterfly, error) {
		if fail.Load() {
			return nil, errors.New("construct: transient failure")
		}
		return core.New(d.M, d.N)
	}}

	d := Dims{M: 1, N: 3}
	if _, err := p.Get(d); err == nil {
		t.Fatal("Get succeeded under a failing construct")
	}
	if p.Len() != 0 {
		t.Errorf("failed build left Len = %d, want 0", p.Len())
	}
	p.mu.Lock()
	resident, lruLen := len(p.entries), p.lru.Len()
	p.mu.Unlock()
	if resident != 0 || lruLen != 0 {
		t.Errorf("failed build left %d entries / %d LRU slots resident", resident, lruLen)
	}

	// The error must not be pinned: once construction can succeed, the
	// same dims Get retries and builds for real.
	fail.Store(false)
	hb, err := p.Get(d)
	if err != nil || hb == nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d after successful retry, want 1", p.Len())
	}

	// Failed entries must not evict real instances: with Max=2 and one
	// resident, a burst of failing Gets for other dims leaves it alone.
	fail.Store(true)
	for _, other := range []Dims{{M: 2, N: 3}, {M: 0, N: 3}, {M: 2, N: 4}} {
		if _, err := p.Get(other); err == nil {
			t.Fatalf("Get(%v) succeeded under a failing construct", other)
		}
	}
	fail.Store(false)
	if hb2, err := p.Get(d); err != nil || hb2 != hb {
		t.Errorf("resident instance lost to failed-entry eviction (err %v)", err)
	}
	if p.Evictions() != 0 {
		t.Errorf("evictions %d, want 0", p.Evictions())
	}
}

// TestPoolConcurrentFailedGets: concurrent Gets racing a failing
// construct all observe the error, and the pool ends empty so a later
// Get can retry.
func TestPoolConcurrentFailedGets(t *testing.T) {
	p := &Pool{Max: 4, construct: func(d Dims) (*core.HyperButterfly, error) {
		return nil, errors.New("construct: always fails")
	}}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Get(Dims{M: 2, N: 3})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d saw no error", i)
		}
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d after failed concurrent Gets, want 0", p.Len())
	}
	p.mu.Lock()
	resident := len(p.entries)
	p.mu.Unlock()
	if resident != 0 {
		t.Errorf("%d failed entries still resident", resident)
	}
}

func TestMetricsBucketCount(t *testing.T) {
	if len(latencyBuckets) != len0 {
		t.Fatalf("len0 = %d but len(latencyBuckets) = %d — keep them in sync", len0, len(latencyBuckets))
	}
	for i := 1; i < len(latencyBuckets); i++ {
		if latencyBuckets[i] <= latencyBuckets[i-1] {
			t.Fatalf("buckets not strictly increasing at %d", i)
		}
	}
}

// TestRequestCounterOrder pins the order of hbd_requests_total lines:
// by endpoint+"\xff"+code as bytes, so an endpoint listed after one it
// extends, and codes in numeric order.
func TestRequestCounterOrder(t *testing.T) {
	m := NewMetrics()
	for _, r := range []struct {
		endpoint string
		code     int
	}{{"a", 503}, {"ab", 200}, {"a", 200}, {"a", 200}, {"b", 404}} {
		m.RequestEnd(r.endpoint, r.code, time.Millisecond)
	}
	var out bytes.Buffer
	m.WriteTo(&out, nil, nil)
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "hbd_requests_total{") {
			got = append(got, line)
		}
	}
	want := []string{
		`hbd_requests_total{endpoint="ab",code="200"} 1`,
		`hbd_requests_total{endpoint="a",code="200"} 2`,
		`hbd_requests_total{endpoint="a",code="503"} 1`,
		`hbd_requests_total{endpoint="b",code="404"} 1`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("request counters:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if total, non2xx := m.Requests(); total != 5 || non2xx != 2 {
		t.Errorf("Requests() = %d, %d non-2xx; want 5, 2", total, non2xx)
	}
}

func TestFnv1aSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[fnv1a(fmt.Sprintf("route|2|3|%d|95", i))&15] = true
	}
	if len(seen) < 8 {
		t.Errorf("64 keys landed in only %d of 16 shards", len(seen))
	}
}
