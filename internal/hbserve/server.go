// Package hbserve is the topology-query service behind cmd/hbd: a
// long-lived HTTP/JSON daemon answering routing questions about
// HB(m,n) instances, shaped like an inference-serving stack. Queries
// are cheap by construction (Theorems 3 and 5 make routes and the m+4
// disjoint paths label-computable), so the serving problem is the
// classic one — amortise instance construction across requests (Pool),
// dedupe and memoise the hot path (RouteCache, singleflight), observe
// everything (Metrics, /metrics), and drain cleanly on shutdown.
//
// Responses for /route and /paths are rendered once and cached as
// bytes, so identical queries return byte-identical bodies no matter
// how they interleave. /faultroute takes a caller-supplied fault set
// and is deliberately uncached (fault sets are high-cardinality);
// /conformance re-runs the paper's invariant registry on demand;
// /estimate answers exactly from one BFS on instances up to
// maxExactOrder nodes, and above that (or with live=1) with sampled
// diameter/distance evidence and explicit confidence statements.
//
// Every query is answered by label arithmetic, the Theorem 5 paths
// included, so a cold hbd answers /route, /paths and /faultroute on
// HB(10,10) (~10.5M nodes) without ever materialising a graph. The single-pair
// GETs are one-pair batches: they run the same per-op code as /batch
// and only render a different JSON shape. verify=1 replays a BFS oracle
// over the adjacency, built on demand, on instances small enough for
// one; above that it checks label arithmetic: per-hop neighborhood
// membership plus the analytic distance, and graph.VerifyDisjointPaths
// for path certificates.
package hbserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/graph"
)

// Server bundles the pool, cache and metrics behind an http.Handler.
type Server struct {
	pool    *Pool
	cache   *RouteCache
	metrics *Metrics
	mux     *http.ServeMux

	timeout      time.Duration // per-request deadline
	maxInFlight  int64         // load-shedding bound
	batchWorkers int           // /batch kernel fan-out; <= 0 means GOMAXPROCS

	// scratch pools the BFS kernel state used by verify=1 requests, so
	// verification costs one traversal and zero steady-state
	// allocations per request.
	scratch sync.Pool

	// testHook, when set, runs inside every instrumented request after
	// the in-flight gauge is raised; tests use it to hold requests open
	// across a drain.
	testHook func(endpoint string)
}

// Config sizes a Server. Zero values select the defaults.
type Config struct {
	PoolMax    int // max resident HB instances (DefaultPoolMax)
	MaxOrder   int // max nodes of a served instance (DefaultMaxOrder)
	CacheSize  int // route-cache capacity in entries; < 0 disables
	CacheShard int // route-cache shard count (DefaultCacheShards)
	// RequestTimeout bounds each instrumented request via its context;
	// 0 means DefaultRequestTimeout, < 0 disables the deadline.
	RequestTimeout time.Duration
	// MaxInFlight sheds load with a 503 + Retry-After once this many
	// instrumented requests are already in flight; 0 means
	// DefaultMaxInFlight, < 0 disables shedding.
	MaxInFlight int
	// BatchWorkers bounds the per-request fan-out of the /batch routing
	// kernel; 0 means GOMAXPROCS.
	BatchWorkers int
}

// DefaultCacheSize holds rendered /route and /paths bodies; entries
// are small (a path is tens of ints) so this is a few MB at worst.
const DefaultCacheSize = 4096

// DefaultRequestTimeout bounds a single request; generous enough for a
// cold conformance run on the largest on-demand instance.
const DefaultRequestTimeout = 10 * time.Second

// DefaultMaxInFlight is the load-shedding bound: far above any healthy
// concurrency for these µs-to-ms handlers, so it only trips when the
// service is already drowning.
const DefaultMaxInFlight = 512

// NewServer returns a ready-to-serve Server.
func NewServer(cfg Config) *Server {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	maxInFlight := int64(cfg.MaxInFlight)
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	s := &Server{
		pool:         &Pool{Max: cfg.PoolMax, MaxOrder: cfg.MaxOrder},
		cache:        NewRouteCache(size, cfg.CacheShard),
		metrics:      NewMetrics(),
		mux:          http.NewServeMux(),
		timeout:      timeout,
		maxInFlight:  maxInFlight,
		batchWorkers: cfg.BatchWorkers,
	}
	s.scratch.New = func() any { return graph.NewScratch(0) }
	s.mux.HandleFunc("/route", s.instrument("route", s.handleQuery(batchOpRoute)))
	s.mux.HandleFunc("/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("/paths", s.instrument("paths", s.handleQuery(batchOpPaths)))
	s.mux.HandleFunc("/faultroute", s.instrument("faultroute", s.handleQuery(batchOpFaultRoute)))
	s.mux.HandleFunc("/info", s.instrument("info", s.handleInfo))
	s.mux.HandleFunc("/conformance", s.instrument("conformance", s.handleConformance))
	s.mux.HandleFunc("/estimate", s.instrument("estimate", s.handleEstimate))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.WriteTo(w, s.cache, s.pool)
	})
	return s
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the live registry (perfbench and the tests read it
// in-process).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the route cache for stats inspection.
func (s *Server) Cache() *RouteCache { return s.cache }

// ListenAndServe serves on addr until ctx is cancelled, then drains
// in-flight requests for up to grace before forcing connections shut.
// It returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, grace)
}

// Serve is ListenAndServe over an existing listener (tests bind port 0
// and read the real address back).
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("hbserve: drain incomplete after %v: %w", grace, err)
	}
	<-errc // always http.ErrServerClosed after a Shutdown
	return nil
}

// statusWriter captures the response code for metrics and whether a
// header has gone out (after that, a panic recovery can only abort, not
// rewrite the response).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the serving-resilience middleware:
// the in-flight gauge, per-endpoint counter and latency histogram;
// load shedding (503 + Retry-After beyond maxInFlight, so an
// overloaded daemon degrades crisply instead of queueing without
// bound); a per-request deadline on the context; and panic recovery
// that answers 500 and increments a metric instead of killing the
// daemon.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.RequestStart()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.PanicRecovered()
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					writeErr(sw, &httpError{
						code: http.StatusInternalServerError,
						msg:  fmt.Sprintf("internal error: %v", p),
					})
				}
			}
			s.metrics.RequestEnd(endpoint, sw.code, time.Since(start))
		}()
		if s.maxInFlight > 0 && s.metrics.InFlight() > s.maxInFlight {
			s.metrics.LoadShed()
			sw.Header().Set("Retry-After", "1")
			writeErr(sw, &httpError{
				code: http.StatusServiceUnavailable,
				msg:  fmt.Sprintf("over capacity: %d requests in flight", s.metrics.InFlight()),
			})
			return
		}
		if s.testHook != nil {
			s.testHook(endpoint)
		}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sw, r)
	}
}

// checkDeadline maps an already-expired request context to a 503 the
// heavy handlers (/conformance, /faultroute) consult before starting
// expensive work.
func checkDeadline(r *http.Request) error {
	if err := r.Context().Err(); err != nil {
		return &httpError{code: http.StatusServiceUnavailable, msg: "request deadline exceeded before work started"}
	}
	return nil
}

// httpError is an error carrying a status code.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// setResponseHeaders is the single place response headers are
// assembled: every handler path goes through it, so Content-Type and
// X-Cache can never drift between the cache-hit and cache-miss paths.
// cache is "" for uncached responses (no X-Cache header).
func setResponseHeaders(w http.ResponseWriter, contentType, cache string) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	if cache != "" {
		h.Set("X-Cache", cache)
	}
}

// writeBody writes pre-rendered bytes under the shared header helper.
// It declares the length of a body over net/http's 2 KB buffer, which
// net/http would otherwise send chunked, at the cost of one more write
// on the sender and one more read, often a wakeup, on the reader. A
// body within the buffer is written whole when the handler returns,
// and net/http declares its length then without allocating.
func writeBody(w http.ResponseWriter, contentType, cache string, body []byte) {
	setResponseHeaders(w, contentType, cache)
	if len(body) > chunkingBuffer {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.Write(body)
}

// chunkingBuffer is the size of net/http's per-response buffer, up to
// which a handler's writes are held back and their length declared.
const chunkingBuffer = 2048

// writeJSON writes v as JSON; writeErr maps errors to {"error": ...},
// with an *httpError's code, or 500 for any other error.
func writeJSON(w http.ResponseWriter, v any) {
	setResponseHeaders(w, ctJSON, "")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	setResponseHeaders(w, ctJSON, "")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// query parsing ------------------------------------------------------

// The parameter readers take the url.Values a handler parsed once from
// its request, not the request itself: r.URL.Query() parses the whole
// query string on every call.

func (s *Server) instance(q url.Values) (*core.HyperButterfly, Dims, error) {
	m, err := intParam(q, "m", 2)
	if err != nil {
		return nil, Dims{}, err
	}
	n, err := intParam(q, "n", 3)
	if err != nil {
		return nil, Dims{}, err
	}
	d := Dims{M: m, N: n}
	top, err := s.pool.Get(d)
	if err != nil {
		return nil, d, badRequest("%v", err)
	}
	return top, d, nil
}

func intParam(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %s=%q is not an integer", name, raw)
	}
	return v, nil
}

func nodeParam(q url.Values, top *core.HyperButterfly, name string) (core.Node, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, badRequest("missing node parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("node parameter %s=%q is not an integer", name, raw)
	}
	if !top.ValidNode(v) {
		return 0, badRequest("node %s=%d out of range [0,%d)", name, v, top.Order())
	}
	return v, nil
}

// handlers -----------------------------------------------------------

type routeResponse struct {
	M        int      `json:"m"`
	N        int      `json:"n"`
	U        int      `json:"u"`
	V        int      `json:"v"`
	Distance int      `json:"distance"`
	Path     []int    `json:"path"`
	Moves    []string `json:"moves"`
	Verified bool     `json:"verified,omitempty"`
}

type pathsResponse struct {
	M        int     `json:"m"`
	N        int     `json:"n"`
	U        int     `json:"u"`
	V        int     `json:"v"`
	Count    int     `json:"count"`
	Paths    [][]int `json:"paths"`
	Verified bool    `json:"verified,omitempty"`
}

type faultRouteResponse struct {
	M               int    `json:"m"`
	N               int    `json:"n"`
	U               int    `json:"u"`
	V               int    `json:"v"`
	Faults          []int  `json:"faults"`
	WithinGuarantee bool   `json:"within_guarantee"`
	Strategy        string `json:"strategy"`
	Path            []int  `json:"path"`
}

// handleQuery serves the single-pair GET of one op: /route, /paths or
// /faultroute. The query parses into a one-pair batchRequest, runs the
// /batch per-op code and is rendered into the endpoint's JSON shape.
// /route and /paths bodies go through the route cache, so identical
// queries are byte-identical however they interleave; /faultroute takes
// a caller-supplied fault set and stays uncached (fault sets are
// high-cardinality).
func (s *Server) handleQuery(op uint8) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		top, d, err := s.instance(q)
		if err != nil {
			writeErr(w, err)
			return
		}
		u, err := nodeParam(q, top, "u")
		if err != nil {
			writeErr(w, err)
			return
		}
		v, err := nodeParam(q, top, "v")
		if err != nil {
			writeErr(w, err)
			return
		}
		switch op {
		case batchOpPaths:
			if u == v {
				writeErr(w, badRequest("disjoint paths need distinct endpoints (u=v=%d)", u))
				return
			}
		case batchOpFaultRoute:
			faults, err := faultsParam(q, top)
			if err != nil {
				writeErr(w, err)
				return
			}
			if err := checkDeadline(r); err != nil {
				writeErr(w, err)
				return
			}
			body, err := s.renderQuery(top, d, op, u, v, faults, false)
			if err != nil {
				writeErr(w, err)
				return
			}
			writeBody(w, ctJSON, "", body)
			return
		}
		verify := boolParam(q, "verify")
		s.serveCached(w, cacheKey(batchOpNames[op], d, u, v, verify), func() ([]byte, error) {
			return s.renderQuery(top, d, op, u, v, nil, verify)
		})
	}
}

// serveCached answers with the route cache's JSON body for key,
// computed once by compute across concurrent callers. A panicking
// compute is counted here, before the cache turns it into an error for
// the caller and every waiter, and answers 500.
func (s *Server) serveCached(w http.ResponseWriter, key string, compute func() ([]byte, error)) {
	body, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.PanicRecovered()
				panic(p)
			}
		}()
		return compute()
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	state := "miss"
	if hit {
		state = "hit"
	}
	writeBody(w, ctJSON, state, body)
}

// renderQuery answers the pair (u, v) as a one-pair batch with the
// /batch per-op code and renders the answer in the GET endpoint's JSON
// shape.
func (s *Server) renderQuery(top *core.HyperButterfly, d Dims, op uint8, u, v int, faults []int, verify bool) ([]byte, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	req := &batchRequest{op: op, m: d.M, n: d.N, faults: faults, src: []int{u}, dst: []int{v}}
	cols, err := s.runBatch(top, req, sc)
	if err != nil {
		return nil, err
	}
	switch op {
	case batchOpRoute:
		moves := top.RouteMoves(u, v)
		names := make([]string, len(moves))
		for i, mv := range moves {
			names[i] = mv.String()
		}
		resp := routeResponse{
			M: d.M, N: d.N, U: u, V: v,
			Distance: int(cols.dist[0]),
			Path:     cols.nodes[cols.off[0]:cols.off[1]],
			Moves:    names,
		}
		if verify {
			if err := s.verifyRoute(top, u, v, resp.Path); err != nil {
				return nil, err
			}
			resp.Verified = true
		}
		return marshalBody(resp)

	case batchOpPaths:
		if cols.status[0] != core.BatchOK {
			return nil, sc.err
		}
		paths := make([][]int, 0, cols.off[1]-cols.off[0])
		for q := cols.off[0]; q < cols.off[1]; q++ {
			paths = append(paths, cols.nodes[cols.poff[q]:cols.poff[q+1]])
		}
		resp := pathsResponse{
			M: d.M, N: d.N, U: u, V: v,
			Count: len(paths),
			Paths: paths,
		}
		if verify {
			if err := s.verifyPaths(top, u, v, paths); err != nil {
				return nil, err
			}
			resp.Verified = true
		}
		return marshalBody(resp)

	default: // batchOpFaultRoute
		if cols.status[0] != core.BatchOK {
			// A routing failure is a valid answer about the query, not a
			// server fault: faulty endpoints or a disconnecting fault set.
			return nil, &httpError{code: http.StatusUnprocessableEntity, msg: sc.err.Error()}
		}
		return marshalBody(faultRouteResponse{
			M: d.M, N: d.N, U: u, V: v,
			Faults:          faults,
			WithinGuarantee: sc.within,
			Strategy:        sc.strategy,
			Path:            cols.nodes[cols.off[0]:cols.off[1]],
		})
	}
}

// faultsParam parses faults=3,17,40 into a sorted, deduplicated,
// always-non-nil slice, so the echoed "faults" field is a canonical JSON
// array ([] rather than null, 3,3,1 rendered as [1,3]) regardless of how
// the caller spelled the query.
func faultsParam(q url.Values, top *core.HyperButterfly) ([]int, error) {
	out := []int{}
	raw := q.Get("faults")
	if raw == "" {
		return out, nil
	}
	for _, p := range strings.Split(raw, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badRequest("fault id %q is not an integer", p)
		}
		if !top.ValidNode(f) {
			return nil, badRequest("fault %d out of range [0,%d)", f, top.Order())
		}
		out = append(out, f)
	}
	sort.Ints(out)
	j := 0
	for i, f := range out {
		if i == 0 || f != out[j-1] {
			out[j] = f
			j++
		}
	}
	return out[:j], nil
}

type infoResponse struct {
	M            int `json:"m"`
	N            int `json:"n"`
	Order        int `json:"order"`
	Edges        int `json:"edges"`
	Degree       int `json:"degree"`
	Diameter     int `json:"diameter"`
	Connectivity int `json:"connectivity"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	hb, d, err := s.instance(r.URL.Query())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, infoResponse{
		M: d.M, N: d.N,
		Order:        hb.Order(),
		Edges:        hb.EdgeCountFormula(),
		Degree:       hb.Degree(),
		Diameter:     hb.DiameterFormula(),
		Connectivity: hb.ConnectivityFormula(),
	})
}

// maxConformanceOrder bounds on-demand conformance runs: the invariant
// registry does BFS sweeps and max-flow probes, so a request against a
// big instance could occupy a worker for seconds.
const maxConformanceOrder = 1 << 12

func (s *Server) handleConformance(w http.ResponseWriter, r *http.Request) {
	top, d, err := s.instance(r.URL.Query())
	if err != nil {
		writeErr(w, err)
		return
	}
	if top.Order() > maxConformanceOrder {
		writeErr(w, badRequest("conformance on %v (%d nodes) exceeds the on-demand cap %d",
			d, top.Order(), maxConformanceOrder))
		return
	}
	if err := checkDeadline(r); err != nil {
		writeErr(w, err)
		return
	}
	// The registry runs on a fresh product instance, which the order cap
	// above keeps trivial to build; the pool already built these dims.
	rep := conformance.Run(
		[]conformance.Target{conformance.HyperButterflyInstance(core.MustNew(d.M, d.N))},
		conformance.DefaultInvariants(),
		conformance.Options{},
	)
	writeJSON(w, rep)
}

// estimate request caps: samples are bounded so a request stays well
// under the deadline even at ~µs per label-arithmetic distance, and
// exact source scans (Order distance evaluations each) are only allowed
// on instances small enough to finish one quickly.
const (
	defaultEstimateSamples = 2048
	maxEstimateSamples     = 1 << 16
	maxScanSources         = 4
	maxScanOrder           = 1 << 20
)

type estimateResponse struct {
	M     int `json:"m"`
	N     int `json:"n"`
	Order int `json:"order"`

	Samples    int     `json:"samples"`
	Confidence float64 `json:"confidence"`
	Seed       int64   `json:"seed"`

	DiameterLower   int `json:"diameter_lower"`
	DiameterUpper   int `json:"diameter_upper"`
	DiameterFormula int `json:"diameter_formula"`
	ScannedSources  int `json:"scanned_sources,omitempty"`

	MeanDistance float64   `json:"mean_distance"`
	MeanCI       float64   `json:"mean_ci"`
	CIHalfWidth  float64   `json:"ci_half_width"`
	Fractions    []float64 `json:"fractions"`
}

// maxExactOrder caps the instances /estimate answers exactly (HB(1,8)
// and HB(6,4) are the largest at 4,096 nodes). At the cap one exact
// request, a label-arithmetic BFS, takes 0.35-0.51 ms and a sampled one
// 0.19-0.28 ms (BenchmarkHandlerEstimate, 2-vCPU Xeon, Go 1.24), so the
// exact answer is recomputed per request rather than stored.
const maxExactOrder = 1 << 12

// exactEstimateResponse is the exact /estimate answer. It shares field
// names with estimateResponse where the semantics coincide and adds
// "exact":true so clients can tell it from a sampled one.
type exactEstimateResponse struct {
	M     int  `json:"m"`
	N     int  `json:"n"`
	Order int  `json:"order"`
	Exact bool `json:"exact"`

	Diameter        int `json:"diameter"`
	DiameterFormula int `json:"diameter_formula"`
	EccMin          int `json:"ecc_min"`
	EccMax          int `json:"ecc_max"`

	MeanDistance float64 `json:"mean_distance"`
	// Hist[d] counts ordered (src, dst) pairs at distance d, self pairs
	// included, summing to Order².
	Hist      []int64   `json:"hist"`
	Fractions []float64 `json:"fractions"`
}

// exactEstimate computes the exact /estimate answer from one BFS. HB is
// a Cayley graph (T1), hence vertex-transitive: node 0's eccentricity is
// every node's, and Order times node 0's distance counts is the
// all-pairs histogram.
func exactEstimate(top *core.HyperButterfly) (exactEstimateResponse, error) {
	order := top.Order()
	dist := graph.BFS(top, 0, nil)
	ecc := slices.Max(dist)
	if ecc == graph.Unreachable {
		return exactEstimateResponse{}, fmt.Errorf("hbserve: HB(%d,%d) is disconnected from node 0", top.M(), top.N())
	}
	hist := make([]int64, ecc+1)
	for _, x := range dist {
		hist[x] += int64(order)
	}
	pairs := int64(order) * int64(order-1) // ordered pairs of distinct nodes
	var sum int64
	fractions := make([]float64, len(hist))
	for d := 1; d < len(hist); d++ {
		sum += int64(d) * hist[d]
		fractions[d] = float64(hist[d]) / float64(pairs)
	}
	return exactEstimateResponse{
		M: top.M(), N: top.N(), Order: order,
		Exact:           true,
		Diameter:        int(ecc),
		DiameterFormula: top.DiameterFormula(),
		EccMin:          int(ecc),
		EccMax:          int(ecc),
		MeanDistance:    float64(sum) / float64(pairs),
		Hist:            hist,
		Fractions:       fractions,
	}, nil
}

// handleEstimate answers structural questions. Up to maxExactOrder
// nodes the answer is exact (exactEstimate). Above it, or with live=1,
// it samples a diameter bracket and the distance distribution with
// Hoeffding intervals from the distance oracle alone, so it works
// unchanged on instances where exact sweeps are out of reach. Uncached:
// the seed parameter makes the response identity high-cardinality and
// recomputation is only milliseconds.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	top, d, err := s.instance(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Small instances answer exactly; live=1 opts back into the sampled
	// path (for comparing the estimator against truth).
	if !boolParam(q, "live") && top.Order() <= maxExactOrder {
		resp, err := exactEstimate(top)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, resp)
		return
	}
	samples, err := intParam(q, "samples", defaultEstimateSamples)
	if err != nil {
		writeErr(w, err)
		return
	}
	if samples < 1 || samples > maxEstimateSamples {
		writeErr(w, badRequest("samples=%d outside [1,%d]", samples, maxEstimateSamples))
		return
	}
	seed, err := intParam(q, "seed", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	scan, err := intParam(q, "scan", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	if scan < 0 || scan > maxScanSources {
		writeErr(w, badRequest("scan=%d outside [0,%d]", scan, maxScanSources))
		return
	}
	if scan > 0 && top.Order() > maxScanOrder {
		writeErr(w, badRequest("scan on %v (%d nodes) exceeds the exact-scan cap %d", d, top.Order(), maxScanOrder))
		return
	}
	if err := checkDeadline(r); err != nil {
		writeErr(w, err)
		return
	}
	cfg := graph.EstConfig{
		Samples:     samples,
		Seed:        int64(seed),
		KnownUpper:  top.DiameterFormula(),
		ScanSources: scan,
	}
	de := graph.EstimateDiameter(top.Order(), top.Distance, cfg)
	he := graph.EstimateDistanceHistogram(top.Order(), top.Distance, cfg)
	writeJSON(w, estimateResponse{
		M: d.M, N: d.N, Order: top.Order(),
		Samples:         samples,
		Confidence:      he.Confidence,
		Seed:            int64(seed),
		DiameterLower:   de.Lower,
		DiameterUpper:   de.Upper,
		DiameterFormula: top.DiameterFormula(),
		ScannedSources:  de.ScannedSources,
		MeanDistance:    he.MeanDistance,
		MeanCI:          he.MeanCI,
		CIHalfWidth:     he.CIHalfWidth,
		Fractions:       he.Fractions,
	})
}

// cacheKey builds the full query identity for the route cache. The
// verify flag is part of the identity: verified and unverified bodies
// differ. The key is assembled on the stack, so building it allocates
// only the string, whatever the node ids.
func cacheKey(kind string, d Dims, u, v int, verify bool) string {
	var buf [64]byte
	key := append(buf[:0], kind...)
	for _, x := range [...]int{d.M, d.N, u, v} {
		key = strconv.AppendInt(append(key, '|'), int64(x), 10)
	}
	if verify {
		key = append(key, "|verified"...)
	}
	return string(key)
}

// boolParam reads a flag parameter (accepted forms: 1, true).
func boolParam(q url.Values, name string) bool {
	raw := q.Get(name)
	return raw == "1" || raw == "true"
}

// verification -------------------------------------------------------

// maxBFSVerifyOrder bounds the instances verify=1 checks against a BFS
// over the materialised adjacency (HB(3,8), the paper's own large
// example at 16384 nodes, fits with headroom). Above it the check is
// label arithmetic, since building that adjacency is what serving by
// label arithmetic avoids.
const maxBFSVerifyOrder = 1 << 17

// bfsDist runs one pooled-scratch kernel BFS from u and passes the
// distances to read (the slice aliases the scratch, so it must not
// escape read).
func (s *Server) bfsDist(top *core.HyperButterfly, u int, read func(dist []int32) error) error {
	sc := s.scratch.Get().(*graph.Scratch)
	defer s.scratch.Put(sc)
	return read(top.Dense().BFSScratch(u, nil, sc))
}

// verifyRoute independently checks a /route answer: the path must run
// u -> v over real edges and its length must equal the shortest-path
// distance (Theorem 3 routes are optimal). Up to maxBFSVerifyOrder the
// oracle is a pooled-scratch BFS over the materialised adjacency; above
// it every hop is checked against the label-computed neighborhood of
// its predecessor and the length against the analytic distance, which
// the implicit differential gate holds to BFS equality on every
// conformance instance.
func (s *Server) verifyRoute(top *core.HyperButterfly, u, v int, path []int) error {
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return fmt.Errorf("route verification failed: path endpoints %v, want %d -> %d", path, u, v)
	}
	if top.Order() > maxBFSVerifyOrder {
		var buf []int
		for i := 1; i < len(path); i++ {
			var ok bool
			if buf, ok = implicitHasEdge(top, path[i-1], path[i], buf); !ok {
				return fmt.Errorf("route verification failed: %d-%d is not an edge", path[i-1], path[i])
			}
		}
		if want := top.Distance(u, v); len(path)-1 != want {
			return fmt.Errorf("route verification failed: length %d, distance %d", len(path)-1, want)
		}
		return nil
	}
	dense := top.Dense()
	for i := 1; i < len(path); i++ {
		if !dense.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("route verification failed: %d-%d is not an edge", path[i-1], path[i])
		}
	}
	return s.bfsDist(top, u, func(dist []int32) error {
		if int(dist[v]) != len(path)-1 {
			return fmt.Errorf("route verification failed: length %d, BFS distance %d", len(path)-1, dist[v])
		}
		return nil
	})
}

// implicitHasEdge reports whether u-w is an edge using only the label
// neighborhood of u; it returns the (possibly grown) scratch buffer so
// a verification loop reuses one allocation.
func implicitHasEdge(top *core.HyperButterfly, u, w int, buf []int) ([]int, bool) {
	buf = top.AppendNeighbors(u, buf[:0])
	for _, x := range buf {
		if x == w {
			return buf, true
		}
	}
	return buf, false
}

// verifyPaths independently checks a /paths answer: every path must run
// u -> v over real edges, the set must be internally vertex-disjoint,
// and no path may be shorter than the shortest-path distance. Up to
// maxBFSVerifyOrder the distance comes from the BFS oracle; above it
// graph.VerifyDisjointPaths certifies the set (the instance is a
// graph.Graph) against the analytic distance.
func (s *Server) verifyPaths(top *core.HyperButterfly, u, v int, paths [][]int) error {
	if top.Order() > maxBFSVerifyOrder {
		if err := graph.VerifyDisjointPaths(top, u, v, paths); err != nil {
			return fmt.Errorf("paths verification failed: %v", err)
		}
		minLen := top.Distance(u, v)
		for pi, p := range paths {
			if len(p)-1 < minLen {
				return fmt.Errorf("paths verification failed: path %d length %d below distance %d", pi, len(p)-1, minLen)
			}
		}
		return nil
	}
	dense := top.Dense()
	return s.bfsDist(top, u, func(dist []int32) error {
		for pi, p := range paths {
			if len(p) == 0 || p[0] != u || p[len(p)-1] != v {
				return fmt.Errorf("paths verification failed: path %d endpoints %v, want %d -> %d", pi, p, u, v)
			}
			for i := 1; i < len(p); i++ {
				if !dense.HasEdge(p[i-1], p[i]) {
					return fmt.Errorf("paths verification failed: path %d uses non-edge %d-%d", pi, p[i-1], p[i])
				}
			}
			if len(p)-1 < int(dist[v]) {
				return fmt.Errorf("paths verification failed: path %d length %d below BFS distance %d", pi, len(p)-1, dist[v])
			}
		}
		return nil
	})
}

// marshalBody renders a response exactly as json.Encoder does (trailing
// newline included) so cached and uncached bodies are byte-identical.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
