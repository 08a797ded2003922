package hbserve

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the daemon's live instrumentation: per-endpoint request
// counters split by status code, per-endpoint latency histograms, an
// in-flight gauge, and pass-through cache/pool gauges. Everything is
// lock-free on the hot path (atomics; the label maps are guarded by a
// mutex only on first sight of a new label pair) and rendered in
// Prometheus text exposition format with deterministic ordering so
// scrapes are diffable.
type Metrics struct {
	mu        sync.Mutex
	requests  map[counterKey]*atomic.Uint64
	durations map[string]*latencyHistogram // endpoint -> histogram
	inflight  atomic.Int64
	panics    atomic.Uint64 // handler panics recovered by instrument
	shed      atomic.Uint64 // requests refused by load shedding
	start     time.Time

	// /batch instrumentation: request and pair throughput per codec+op
	// (the codec split is what the batch-vs-single benchmark reads), and
	// per-op compute latency (excluding HTTP parse/encode captured by the
	// endpoint histogram above).
	batchRequests map[string]*atomic.Uint64    // "codec\xffop" -> requests
	batchPairs    map[string]*atomic.Uint64    // "codec\xffop" -> pairs answered
	batchDur      map[string]*latencyHistogram // op -> compute latency
}

// counterKey labels one request counter. A struct key, unlike a
// formatted string, is looked up without allocating.
type counterKey struct {
	endpoint string
	code     int
}

// sortKey is the order the exposition lists request counters in.
func (k counterKey) sortKey() string { return k.endpoint + "\xff" + strconv.Itoa(k.code) }

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:      make(map[counterKey]*atomic.Uint64),
		durations:     make(map[string]*latencyHistogram),
		batchRequests: make(map[string]*atomic.Uint64),
		batchPairs:    make(map[string]*atomic.Uint64),
		batchDur:      make(map[string]*latencyHistogram),
		start:         time.Now(),
	}
}

// latencyBuckets are the histogram upper bounds in seconds, spanning
// cache hits (~µs) through cold conformance runs (~s).
var latencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

type latencyHistogram struct {
	buckets [len0 + 1]atomic.Uint64 // counts per bucket; last = +Inf
	sumNS   atomic.Uint64
	count   atomic.Uint64
}

const len0 = 15 // len(latencyBuckets); array sizes need a constant

// RequestStart marks a request in flight.
func (m *Metrics) RequestStart() { m.inflight.Add(1) }

// RequestEnd records one finished request.
func (m *Metrics) RequestEnd(endpoint string, code int, elapsed time.Duration) {
	m.inflight.Add(-1)
	m.counter(endpoint, code).Add(1)
	m.histogram(endpoint).observe(elapsed)
}

// InFlight returns the current in-flight request count.
func (m *Metrics) InFlight() int64 { return m.inflight.Load() }

// PanicRecovered counts one handler panic turned into a 500.
func (m *Metrics) PanicRecovered() { m.panics.Add(1) }

// Panics returns the recovered-panic count.
func (m *Metrics) Panics() uint64 { return m.panics.Load() }

// LoadShed counts one request refused with a 503 by the in-flight bound.
func (m *Metrics) LoadShed() { m.shed.Add(1) }

// Sheds returns the load-shed count.
func (m *Metrics) Sheds() uint64 { return m.shed.Load() }

// BatchObserve records one answered /batch request: pairs answered
// under the codec+op labels, and the op's compute+encode latency.
func (m *Metrics) BatchObserve(codec, op string, pairs int, elapsed time.Duration) {
	key := codec + "\xff" + op
	m.labelled(&m.batchRequests, key).Add(1)
	m.labelled(&m.batchPairs, key).Add(uint64(pairs))
	m.mu.Lock()
	h, ok := m.batchDur[op]
	if !ok {
		h = &latencyHistogram{}
		m.batchDur[op] = h
	}
	m.mu.Unlock()
	h.observe(elapsed)
}

func (m *Metrics) labelled(set *map[string]*atomic.Uint64, key string) *atomic.Uint64 {
	m.mu.Lock()
	c, ok := (*set)[key]
	if !ok {
		c = &atomic.Uint64{}
		(*set)[key] = c
	}
	m.mu.Unlock()
	return c
}

func (h *latencyHistogram) observe(elapsed time.Duration) {
	i := sort.SearchFloat64s(latencyBuckets, elapsed.Seconds())
	h.buckets[i].Add(1)
	h.sumNS.Add(uint64(elapsed.Nanoseconds()))
	h.count.Add(1)
}

func (m *Metrics) counter(endpoint string, code int) *atomic.Uint64 {
	key := counterKey{endpoint, code}
	m.mu.Lock()
	c, ok := m.requests[key]
	if !ok {
		c = &atomic.Uint64{}
		m.requests[key] = c
	}
	m.mu.Unlock()
	return c
}

func (m *Metrics) histogram(endpoint string) *latencyHistogram {
	m.mu.Lock()
	h, ok := m.durations[endpoint]
	if !ok {
		h = &latencyHistogram{}
		m.durations[endpoint] = h
	}
	m.mu.Unlock()
	return h
}

// Requests returns the total request count and the non-2xx count —
// what the load smoke asserts on.
func (m *Metrics) Requests() (total, non2xx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, c := range m.requests {
		n := c.Load()
		total += n
		if key.code/100 != 2 {
			non2xx += n
		}
	}
	return total, non2xx
}

// WriteTo renders the exposition in Prometheus text format. cache and
// pool may be nil. Families and label sets are emitted in sorted order
// so two scrapes of the same state are byte-identical.
func (m *Metrics) WriteTo(w io.Writer, cache *RouteCache, pool *Pool) {
	fmt.Fprintf(w, "# HELP hbd_up 1 while the daemon is serving.\n# TYPE hbd_up gauge\nhbd_up 1\n")
	fmt.Fprintf(w, "# HELP hbd_uptime_seconds Seconds since the daemon started.\n# TYPE hbd_uptime_seconds gauge\nhbd_uptime_seconds %g\n",
		time.Since(m.start).Seconds())
	fmt.Fprintf(w, "# HELP hbd_inflight_requests Requests currently being served.\n# TYPE hbd_inflight_requests gauge\nhbd_inflight_requests %d\n",
		m.inflight.Load())
	fmt.Fprintf(w, "# HELP hbd_panics_total Handler panics recovered and converted to 500s.\n# TYPE hbd_panics_total counter\nhbd_panics_total %d\n",
		m.panics.Load())
	fmt.Fprintf(w, "# HELP hbd_load_shed_total Requests refused with 503 by the in-flight bound.\n# TYPE hbd_load_shed_total counter\nhbd_load_shed_total %d\n",
		m.shed.Load())

	m.mu.Lock()
	reqKeys := make([]counterKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	durKeys := make([]string, 0, len(m.durations))
	for k := range m.durations {
		durKeys = append(durKeys, k)
	}
	m.mu.Unlock()
	slices.SortFunc(reqKeys, func(a, b counterKey) int { return strings.Compare(a.sortKey(), b.sortKey()) })
	sort.Strings(durKeys)

	fmt.Fprintf(w, "# HELP hbd_requests_total Requests served, by endpoint and status code.\n# TYPE hbd_requests_total counter\n")
	for _, k := range reqKeys {
		m.mu.Lock()
		c := m.requests[k]
		m.mu.Unlock()
		fmt.Fprintf(w, "hbd_requests_total{endpoint=%q,code=%q} %d\n", k.endpoint, strconv.Itoa(k.code), c.Load())
	}

	fmt.Fprintf(w, "# HELP hbd_request_seconds Request latency, by endpoint.\n# TYPE hbd_request_seconds histogram\n")
	for _, ep := range durKeys {
		m.mu.Lock()
		h := m.durations[ep]
		m.mu.Unlock()
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "hbd_request_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, formatFloat(ub), cum)
		}
		cum += h.buckets[len0].Load()
		fmt.Fprintf(w, "hbd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "hbd_request_seconds_sum{endpoint=%q} %g\n", ep, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "hbd_request_seconds_count{endpoint=%q} %d\n", ep, h.count.Load())
	}

	m.mu.Lock()
	batchKeys := make([]string, 0, len(m.batchRequests))
	for k := range m.batchRequests {
		batchKeys = append(batchKeys, k)
	}
	batchOps := make([]string, 0, len(m.batchDur))
	for k := range m.batchDur {
		batchOps = append(batchOps, k)
	}
	m.mu.Unlock()
	sort.Strings(batchKeys)
	sort.Strings(batchOps)

	fmt.Fprintf(w, "# HELP hbd_batch_requests_total Batch requests answered, by codec and op.\n# TYPE hbd_batch_requests_total counter\n")
	for _, k := range batchKeys {
		m.mu.Lock()
		c := m.batchRequests[k]
		m.mu.Unlock()
		codec, op, _ := strings.Cut(k, "\xff")
		fmt.Fprintf(w, "hbd_batch_requests_total{codec=%q,op=%q} %d\n", codec, op, c.Load())
	}
	fmt.Fprintf(w, "# HELP hbd_batch_pairs_total Pairs answered by /batch, by codec and op.\n# TYPE hbd_batch_pairs_total counter\n")
	for _, k := range batchKeys {
		m.mu.Lock()
		c := m.batchPairs[k]
		m.mu.Unlock()
		if c == nil {
			continue
		}
		codec, op, _ := strings.Cut(k, "\xff")
		fmt.Fprintf(w, "hbd_batch_pairs_total{codec=%q,op=%q} %d\n", codec, op, c.Load())
	}
	fmt.Fprintf(w, "# HELP hbd_batch_op_seconds Batch compute+encode latency, by op.\n# TYPE hbd_batch_op_seconds histogram\n")
	for _, op := range batchOps {
		m.mu.Lock()
		h := m.batchDur[op]
		m.mu.Unlock()
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "hbd_batch_op_seconds_bucket{op=%q,le=%q} %d\n", op, formatFloat(ub), cum)
		}
		cum += h.buckets[len0].Load()
		fmt.Fprintf(w, "hbd_batch_op_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", op, cum)
		fmt.Fprintf(w, "hbd_batch_op_seconds_sum{op=%q} %g\n", op, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "hbd_batch_op_seconds_count{op=%q} %d\n", op, h.count.Load())
	}

	if cache != nil {
		hits, misses, dedups := cache.Stats()
		fmt.Fprintf(w, "# HELP hbd_route_cache_hits_total Route-cache hits.\n# TYPE hbd_route_cache_hits_total counter\nhbd_route_cache_hits_total %d\n", hits)
		fmt.Fprintf(w, "# HELP hbd_route_cache_misses_total Route-cache misses (computations).\n# TYPE hbd_route_cache_misses_total counter\nhbd_route_cache_misses_total %d\n", misses)
		fmt.Fprintf(w, "# HELP hbd_route_cache_dedup_total Requests coalesced onto another's computation.\n# TYPE hbd_route_cache_dedup_total counter\nhbd_route_cache_dedup_total %d\n", dedups)
		fmt.Fprintf(w, "# HELP hbd_route_cache_entries Resident route-cache entries.\n# TYPE hbd_route_cache_entries gauge\nhbd_route_cache_entries %d\n", cache.Len())
	}
	if pool != nil {
		fmt.Fprintf(w, "# HELP hbd_pool_instances Resident HB instances.\n# TYPE hbd_pool_instances gauge\nhbd_pool_instances %d\n", pool.Len())
		fmt.Fprintf(w, "# HELP hbd_pool_evictions_total Instances evicted by the pool bound.\n# TYPE hbd_pool_evictions_total counter\nhbd_pool_evictions_total %d\n", pool.Evictions())
	}
}

// formatFloat renders bucket bounds the way Prometheus clients expect
// (shortest representation, no exponent for these magnitudes).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
