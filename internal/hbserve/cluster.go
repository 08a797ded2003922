package hbserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The cluster tier applies the paper's fault-tolerance story to the
// serving layer itself: where Theorem 5 keeps HB(m,n) routable while
// the fault engine kills edges and nodes, the Router keeps a fleet of
// hbd replicas answering while the same churn schedules kill and
// restart whole servers. It consistent-hash-shards the (dims,u,v)
// keyspace across N replica base URLs (so each replica's instance pool
// and route cache stay hot on its own shard), forwards with a bounded
// queue (shedding 503 + Retry-After beyond it, like the replicas
// themselves), actively health-checks peers with deadline probes and
// ejection/re-admission hysteresis, and retries transport failures on
// the next live replica clockwise — which is what turns a mid-load
// replica kill into zero client-visible errors.
//
// Keys are replicated at factor R (Replication): each key's owner set
// is the first R distinct alive replicas on the clockwise walk, and
// single queries fail over within the owner set before walking further.
// A /batch body goes whole to the least-loaded alive owner of its dims
// key (see cluster_batch.go), so an ejection moves a batch to the
// surviving owner with the fewest pairs in flight.

// ClusterConfig sizes a Router. Zero values select the defaults.
type ClusterConfig struct {
	// Replicas are the peer base URLs (e.g. http://127.0.0.1:9001), each
	// http://host:port with an optional path prefix; at least one is
	// required.
	Replicas []string
	// VNodes is the number of ring points per replica (defaultVNodes).
	VNodes int
	// QueueDepth bounds concurrently forwarded requests; beyond it the
	// router sheds with 503 + Retry-After. 0 means DefaultQueueDepth,
	// < 0 disables shedding.
	QueueDepth int
	// MaxAttempts bounds how many distinct replicas one request may be
	// tried against on transport errors; 0 means min(3, len(Replicas)).
	MaxAttempts int
	// ForwardTimeout is the per-attempt deadline; 0 means
	// DefaultForwardTimeout.
	ForwardTimeout time.Duration

	// Replication is the owner-set size R: every key is served by the
	// first R distinct alive replicas on its clockwise walk. 0 means
	// DefaultReplication; it is capped at the replica count.
	Replication int

	// Health-check knobs; zero values select the Default* constants.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	EjectAfter    int
	ReadmitAfter  int
}

// DefaultQueueDepth bounds forwarding concurrency: far above a healthy
// fleet's needs, so it only trips when every replica is drowning.
const DefaultQueueDepth = 256

// DefaultForwardTimeout matches the replicas' own request deadline.
const DefaultForwardTimeout = 10 * time.Second

// DefaultReplication keeps two alive owners per key: one ejection
// leaves every key with a warm-set owner and spreads the dead
// replica's batch share across survivors by load instead of dumping it
// all on the next point clockwise.
const DefaultReplication = 2

// Router is the consistent-hash forwarding proxy over a replica fleet.
type Router struct {
	cfg         ClusterConfig
	replicas    []string
	ring        *hashRing
	health      *healthChecker
	timeout     time.Duration // per-attempt forward deadline
	mux         *http.ServeMux
	queue       chan struct{}
	attempts    int
	replication int
	start       time.Time

	retries   atomic.Uint64 // transport-failed attempts retried elsewhere
	shed      atomic.Uint64 // requests refused by the queue bound
	noReplica atomic.Uint64 // requests failed for want of any live replica

	// /batch accounting: batches forwarded, batch attempts retried on
	// another replica, pairs in forwarded batches, and per-replica
	// in-flight pairs (the least-loaded choice's signal and the
	// owner-set occupancy gauge).
	subFanout  atomic.Uint64
	subRetries atomic.Uint64
	subPairs   atomic.Uint64
	inflight   []atomic.Int64

	// bodyPool holds request bodies and replica answers; batchPool
	// holds batchForward. They keep the per-forward allocation profile
	// flat under load.
	bodyPool  sync.Pool
	batchPool sync.Pool
}

// NewRouter builds a Router over the configured replica fleet. Start
// launches the health probes; Serve (or Handler + an external server)
// serves the forwarding endpoint.
func NewRouter(cfg ClusterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("hbserve: router needs at least one replica URL")
	}
	replicas := make([]string, len(cfg.Replicas))
	conns := make([]*replicaConns, len(cfg.Replicas))
	seen := make(map[string]bool, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		c, err := newReplicaConns(u)
		if err != nil {
			return nil, err
		}
		if seen[c.url] {
			return nil, fmt.Errorf("hbserve: duplicate replica URL %s", c.url)
		}
		seen[c.url] = true
		replicas[i], conns[i] = c.url, c
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	if attempts > len(replicas) {
		attempts = len(replicas)
	}
	fwdTimeout := cfg.ForwardTimeout
	if fwdTimeout <= 0 {
		fwdTimeout = DefaultForwardTimeout
	}
	replication := cfg.Replication
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > len(replicas) {
		replication = len(replicas)
	}
	rt := &Router{
		cfg:         cfg,
		replicas:    replicas,
		ring:        newHashRing(replicas, cfg.VNodes),
		health:      newHealthChecker(conns, cfg.ProbeInterval, cfg.ProbeTimeout, cfg.EjectAfter, cfg.ReadmitAfter),
		timeout:     fwdTimeout,
		mux:         http.NewServeMux(),
		attempts:    attempts,
		replication: replication,
		inflight:    make([]atomic.Int64, len(replicas)),
		start:       time.Now(),
	}
	rt.bodyPool.New = func() any { return new(bytes.Buffer) }
	rt.batchPool.New = func() any { return new(batchForward) }
	if depth > 0 {
		rt.queue = make(chan struct{}, depth)
	}
	rt.mux.HandleFunc("/", rt.forward)
	rt.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	rt.mux.HandleFunc("/cluster", rt.handleCluster)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

// Start launches the active health probes; Stop shuts them down and
// closes the idle replica connections.
func (rt *Router) Start() { rt.health.Start() }
func (rt *Router) Stop() {
	rt.health.Stop()
	for _, r := range rt.health.replicas {
		r.conns.closeIdle()
	}
}

// Handler returns the router's root handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Healthy reports whether replica i is currently admitted.
func (rt *Router) Healthy(i int) bool { return rt.health.Healthy(i) }

// Serve serves on ln until ctx is cancelled, then drains like
// Server.Serve. Health probes run for the duration.
func (rt *Router) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	rt.Start()
	defer rt.Stop()
	srv := &http.Server{Handler: rt.mux}
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
		return fmt.Errorf("hbserve: router drain incomplete after %v: %w", grace, err)
	}
	<-errc
	return nil
}

// ListenAndServe is Serve over a fresh listener.
func (rt *Router) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.Serve(ctx, ln, grace)
}

// forward proxies one request to the replica owning its shard key,
// failing over within the key's owner set and then the next live
// replicas clockwise on transport errors. /batch POSTs branch into the
// whole-batch path (cluster_batch.go).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request) {
	if rt.queue != nil {
		select {
		case rt.queue <- struct{}{}:
			defer func() { <-rt.queue }()
		default:
			rt.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, &httpError{
				code: http.StatusServiceUnavailable,
				msg:  fmt.Sprintf("router over capacity: %d forwards in flight", len(rt.queue)),
			})
			return
		}
	}

	// Buffer the body up front into a pooled buffer: a retry must be
	// able to resend it, and per-forward allocations would dominate the
	// router's own cost at fleet rates.
	buf := rt.bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer rt.bodyPool.Put(buf)
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxBatchBody+1)); err != nil {
			writeErr(w, badRequest("reading request body: %v", err))
			return
		}
		r.Body.Close()
		body = buf.Bytes()
	}
	if len(body) > maxBatchBody {
		writeErr(w, badRequest("request body over the %d-byte cap", maxBatchBody))
		return
	}

	if r.Method == http.MethodPost && r.URL.Path == "/batch" {
		rt.forwardBatch(w, r, body)
		return
	}
	rt.forwardKeyed(w, r, rt.requestKey(r), body)
}

// forwardKeyed sends one buffered request toward the key's owner set:
// the primary first, then the remaining owners, then — only once the
// owner set is exhausted — further live replicas clockwise, bounded by
// the attempt budget.
func (rt *Router) forwardKeyed(w http.ResponseWriter, r *http.Request, key uint64, body []byte) {
	// The clockwise distinct-alive walk enumerates the owner set in order
	// before any non-owner, so skipping tried replicas is exactly "fail
	// over within the owner set before walking on".
	next := func(tried []bool) int {
		return rt.ring.Lookup(key, func(i int) bool { return !tried[i] && rt.health.Healthy(i) })
	}
	target := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	ct := r.Header.Get("Content-Type")
	out := rt.bodyPool.Get().(*bytes.Buffer)
	defer rt.bodyPool.Put(out)
	answered := rt.try(1, next, func(i int) bool {
		resp, err := rt.health.replicas[i].conns.roundTrip(r.Context(), r.Method, target, ct, body, rt.timeout, out)
		if err != nil || resp.StatusCode >= 500 {
			return true
		}
		h := w.Header()
		for _, k := range relayedHeaders {
			if v := resp.Header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		h.Set("X-Replica", rt.replicas[i])
		w.WriteHeader(resp.StatusCode)
		w.Write(out.Bytes())
		rt.health.replicas[i].forwarded.Add(1)
		return false
	})
	if !answered {
		rt.noReplica.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, rt.noLiveReplica())
	}
}

// try is the router's one attempt loop, shared by single-query forwards
// and /batch forwards. It sends to the replica next picks among
// those not yet tried, under the attempt budget, counting load pairs in
// flight on it meanwhile. send makes one attempt and reports whether it
// failed through the replica's fault (a transport error or a 5xx,
// including a shed): that failure feeds ejection and moves on to the
// next replica, while any other answer, a 4xx included, is final. try
// reports false when no attempt got a final answer.
func (rt *Router) try(load int64, next func(tried []bool) int, send func(i int) (retry bool)) bool {
	tried := make([]bool, len(rt.replicas))
	for attempt := 0; attempt < rt.attempts; attempt++ {
		i := next(tried)
		if i < 0 {
			break
		}
		tried[i] = true
		rt.inflight[i].Add(load)
		retry := send(i)
		rt.inflight[i].Add(-load)
		if !retry {
			return true
		}
		rt.health.ReportFailure(i)
		rt.retries.Add(1)
	}
	return false
}

// noLiveReplica is the 503 a request gets once try found no replica to
// answer it.
func (rt *Router) noLiveReplica() error {
	return &httpError{code: http.StatusServiceUnavailable,
		msg: fmt.Sprintf("no live replica (%d/%d healthy)", rt.health.HealthyCount(), len(rt.replicas))}
}

// relayedHeaders are the replica answer headers a forward passes on to
// the client, besides the X-Replica stamp the router adds.
var relayedHeaders = []string{"Content-Type", "X-Cache", "Retry-After"}

// requestKey computes the shard key for one single-query request: the
// full (dims,u,v) identity — the same identity the replica's route
// cache keys on, so a key's cache entry lives on exactly one replica.
// (/batch bodies never reach here; cluster_batch.go places them by
// their dims alone.)
func (rt *Router) requestKey(r *http.Request) uint64 {
	q := r.URL.Query()
	qi := func(name string, def int) int {
		v, err := strconv.Atoi(q.Get(name))
		if err != nil {
			return def
		}
		return v
	}
	return shardKey(Dims{M: qi("m", 2), N: qi("n", 3)}, qi("u", 0), qi("v", 0))
}

// peekBatchDims extracts (m,n) from a /batch request body without fully
// decoding it: the JSON codec unmarshals just the two fields, the
// binary codec reads them at fixed offsets in the header frame. It is
// the router's first-line validator — a body whose dims cannot be read
// (truncated binary header, JSON missing m or n, negative dims) answers
// 400 at the router instead of forwarding garbage into the fleet.
func peekBatchDims(ct string, body []byte) (m, n int, ok bool) {
	if strings.HasPrefix(ct, ctBatchBin) {
		// Header frame: u32 len | "HBB1" | u16 version | u16 op | u32 m | u32 n | ...
		if len(body) < 20 || string(body[4:8]) != "HBB1" {
			return 0, 0, false
		}
		return int(binary.LittleEndian.Uint32(body[12:16])),
			int(binary.LittleEndian.Uint32(body[16:20])), true
	}
	var hdr struct {
		M *int `json:"m"`
		N *int `json:"n"`
	}
	if err := json.Unmarshal(body, &hdr); err != nil || hdr.M == nil || hdr.N == nil {
		return 0, 0, false
	}
	if *hdr.M < 0 || *hdr.N < 0 {
		return 0, 0, false
	}
	return *hdr.M, *hdr.N, true
}

// clusterStatus is the /cluster JSON body: live membership plus the
// per-replica forwarding counters.
type clusterStatus struct {
	Replicas    []replicaStatus `json:"replicas"`
	Healthy     int             `json:"healthy"`
	Replication int             `json:"replication"`
	Retries     uint64          `json:"retries"`
	Shed        uint64          `json:"shed"`
	NoReplica   uint64          `json:"no_replica"`

	// /batch counters: batches forwarded to a replica, batch attempts
	// retried on another replica, pairs in forwarded batches.
	SubbatchFanout  uint64 `json:"subbatch_fanout"`
	SubbatchRetries uint64 `json:"subbatch_retries"`
	SubbatchPairs   uint64 `json:"subbatch_pairs"`
}

type replicaStatus struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	Forwarded    uint64 `json:"forwarded"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
	Inflight     int64  `json:"inflight"`
}

// Status snapshots the cluster state (the /cluster handler and
// perfbench both read it).
func (rt *Router) Status() clusterStatus {
	st := clusterStatus{
		Healthy:         rt.health.HealthyCount(),
		Replication:     rt.replication,
		Retries:         rt.retries.Load(),
		Shed:            rt.shed.Load(),
		NoReplica:       rt.noReplica.Load(),
		SubbatchFanout:  rt.subFanout.Load(),
		SubbatchRetries: rt.subRetries.Load(),
		SubbatchPairs:   rt.subPairs.Load(),
	}
	for i, r := range rt.health.replicas {
		st.Replicas = append(st.Replicas, replicaStatus{
			URL:          r.conns.url,
			Healthy:      r.healthy.Load(),
			Forwarded:    r.forwarded.Load(),
			Ejections:    r.ejections.Load(),
			Readmissions: r.readmissions.Load(),
			Inflight:     rt.inflight[i].Load(),
		})
	}
	return st
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, rt.Status())
}

// handleMetrics renders the router's own Prometheus families (the
// replicas each expose their full /metrics separately).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP hbd_router_up 1 while the router is serving.\n# TYPE hbd_router_up gauge\nhbd_router_up 1\n")
	fmt.Fprintf(w, "# HELP hbd_router_uptime_seconds Seconds since the router started.\n# TYPE hbd_router_uptime_seconds gauge\nhbd_router_uptime_seconds %g\n",
		time.Since(rt.start).Seconds())
	fmt.Fprintf(w, "# HELP hbd_router_replicas Configured replica count.\n# TYPE hbd_router_replicas gauge\nhbd_router_replicas %d\n", len(rt.replicas))
	fmt.Fprintf(w, "# HELP hbd_router_healthy_replicas Replicas currently admitted.\n# TYPE hbd_router_healthy_replicas gauge\nhbd_router_healthy_replicas %d\n",
		rt.health.HealthyCount())
	fmt.Fprintf(w, "# HELP hbd_router_retries_total Forward attempts retried on another replica after a transport failure.\n# TYPE hbd_router_retries_total counter\nhbd_router_retries_total %d\n",
		rt.retries.Load())
	fmt.Fprintf(w, "# HELP hbd_router_shed_total Requests refused with 503 by the forwarding queue bound.\n# TYPE hbd_router_shed_total counter\nhbd_router_shed_total %d\n",
		rt.shed.Load())
	fmt.Fprintf(w, "# HELP hbd_router_no_replica_total Requests failed for want of any live replica.\n# TYPE hbd_router_no_replica_total counter\nhbd_router_no_replica_total %d\n",
		rt.noReplica.Load())
	fmt.Fprintf(w, "# HELP hbd_router_replication Owner-set size R: alive replicas serving each key.\n# TYPE hbd_router_replication gauge\nhbd_router_replication %d\n",
		rt.replication)
	fmt.Fprintf(w, "# HELP hbd_router_subbatch_fanout_total /batch requests forwarded, one replica request per batch.\n# TYPE hbd_router_subbatch_fanout_total counter\nhbd_router_subbatch_fanout_total %d\n",
		rt.subFanout.Load())
	fmt.Fprintf(w, "# HELP hbd_router_subbatch_retries_total /batch requests retried against another alive replica after a transport failure, a 5xx or an invalid answer.\n# TYPE hbd_router_subbatch_retries_total counter\nhbd_router_subbatch_retries_total %d\n",
		rt.subRetries.Load())
	fmt.Fprintf(w, "# HELP hbd_router_subbatch_pairs_total Pairs in forwarded /batch requests.\n# TYPE hbd_router_subbatch_pairs_total counter\nhbd_router_subbatch_pairs_total %d\n",
		rt.subPairs.Load())

	idx := make([]int, len(rt.replicas))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rt.replicas[idx[a]] < rt.replicas[idx[b]] })
	fmt.Fprintf(w, "# HELP hbd_router_forwarded_total Requests answered, by replica.\n# TYPE hbd_router_forwarded_total counter\n")
	for _, i := range idx {
		fmt.Fprintf(w, "hbd_router_forwarded_total{replica=%q} %d\n", rt.replicas[i], rt.health.replicas[i].forwarded.Load())
	}
	fmt.Fprintf(w, "# HELP hbd_router_replica_healthy 1 while the replica is admitted.\n# TYPE hbd_router_replica_healthy gauge\n")
	for _, i := range idx {
		v := 0
		if rt.health.Healthy(i) {
			v = 1
		}
		fmt.Fprintf(w, "hbd_router_replica_healthy{replica=%q} %d\n", rt.replicas[i], v)
	}
	fmt.Fprintf(w, "# HELP hbd_router_ejections_total Health-check ejections, by replica.\n# TYPE hbd_router_ejections_total counter\n")
	for _, i := range idx {
		fmt.Fprintf(w, "hbd_router_ejections_total{replica=%q} %d\n", rt.replicas[i], rt.health.replicas[i].ejections.Load())
	}
	fmt.Fprintf(w, "# HELP hbd_router_readmissions_total Health-check re-admissions, by replica.\n# TYPE hbd_router_readmissions_total counter\n")
	for _, i := range idx {
		fmt.Fprintf(w, "hbd_router_readmissions_total{replica=%q} %d\n", rt.replicas[i], rt.health.replicas[i].readmissions.Load())
	}
	fmt.Fprintf(w, "# HELP hbd_router_owner_inflight_pairs Owner-set occupancy: pairs and forwards currently in flight, by replica.\n# TYPE hbd_router_owner_inflight_pairs gauge\n")
	for _, i := range idx {
		fmt.Fprintf(w, "hbd_router_owner_inflight_pairs{replica=%q} %d\n", rt.replicas[i], rt.inflight[i].Load())
	}
}
