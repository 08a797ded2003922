package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// Shares of the window each phase of a traced run measures: the
// open-loop, counter, traced and untraced sequential phases. An untraced
// run spends the whole window on the capacity phase.
const (
	lagShare     = 0.25
	counterShare = 0.25
	tracedShare  = 0.20
	plainShare   = 0.10
)

const (
	setupReps        = 201 // cold constructions setup_s is the median of; 201 take about 1 s
	warmupSeconds    = 1.5 // warm-up sends this many seconds' worth of the open-loop rate
	checkFresh       = 512
	checkFaultRoutes = 256
	checkBatches     = 16
	checkPaths       = 24
	probeRoutes      = 200
	probeFaultRoutes = 64
	probeBatches     = 16
)

func share(window time.Duration, f float64) time.Duration {
	return time.Duration(float64(window) * f)
}

// runServing runs one of the serving workloads.
func runServing(opt options, t *tally) (map[string]float64, error) {
	w := opt.workload
	in := newInputs(opt.seed)
	chk := newChecker(in)
	out := map[string]float64{}
	var rec *recorder
	reps := setupReps
	if opt.trace {
		rec, reps = newRecorder(), 1
	}
	c, setup, err := setupCluster(in, chk, rec, t, reps)
	if err != nil {
		return nil, err
	}
	defer c.close()
	out["setup_s"] = setup
	fmt.Fprintf(opt.out, "setup: median %.3f ms over %d cold constructions (GOMAXPROCS=1; %d servers + router on loopback, a checked /route from each replica and then through the router)\n",
		setup*1e3, reps, replicas)

	checkPass(c, in, chk, w.kind, t)

	conns := runtime.NumCPU()
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	base := c.routerURL
	work := func(id int64) func(int) int {
		streams := make([]*stream, conns)
		for i := range streams {
			streams[i] = in.stream(w.kind, id+int64(i))
		}
		return func(i int) int {
			req := streams[i].next()
			if t.send(clients[i], base, &req, nil) {
				return req.units()
			}
			return 0
		}
	}
	// The warm-up sends a fixed number of requests, so the servers' caches
	// and buffer pools hold the same traffic on every run when the peak
	// RSS is read. The peak of a timed phase moved with GC pacing.
	warmLoop(conns, warmupSeconds*w.rate, work(streamWarm))
	out["peak_rss_mb"] = peakRSSMB()

	if opt.trace {
		return out, traceServing(opt, c, rec, in, chk, clients, work, t, out)
	}

	cpu0, rt0 := cpuTime(), readRuntime()
	cr := closedLoop(conns, opt.window, work(streamClosed))
	cpu, rt1 := cpuTime()-cpu0, readRuntime()
	gc := map[string]float64{}
	runtimeDelta(rt0, rt1, float64(cr.units), gc)
	fmt.Fprintf(opt.out, "capacity runtime: %.0f B and %.1f allocations per unit, GC %.1f%% of CPU, scheduler wait p99 %.0f us\n",
		gc["runtime.alloc_bytes_per_op"], gc["runtime.allocs_per_op"], 100*gc["runtime.gc_cpu_frac"], gc["runtime.sched_wait_p99_us"])
	units, elapsed := cr.units, cr.elapsed
	if units == 0 {
		return nil, fmt.Errorf("capacity phase answered nothing")
	}
	out["capacity_per_s"] = float64(units) / elapsed.Seconds()
	out["cpu_us_per_op"] = us(cpu) / float64(units)
	fmt.Fprintf(opt.out, "capacity: closed loop, %d connections, %d units in %.2f s; process CPU %.2f s (client, router and replicas); per-second slices %s\n",
		conns, units, elapsed.Seconds(), cpu.Seconds(), fmtSlices(cr.slices))
	fmt.Fprintf(opt.out, "memory: peak RSS %.1f MB through set-up, the correctness pass and the warm-up (reported), %.1f MB at the end of the run\n",
		out["peak_rss_mb"], peakRSSMB())
	return out, nil
}

// setupCluster builds the cluster reps times from cold, each after a
// full GC, and keeps the last one. Each construction is timed from the
// first constructor call until the first answer through the router
// arrived: servers and router built and listening, and every replica
// answering a /route sent to it directly, which makes the instance
// resident in each replica's pool. The answers are checked after the
// clock stops. Each construction builds fresh servers whose pools build
// a fresh HB(3,8), so no construction reuses an earlier one's instance
// or dense adjacency (core caches the adjacency per instance).
//
// The set-up is the same for every workload, sends requests one at a
// time and runs with GOMAXPROCS=1, so it times the set-up's own work and
// not how fast an idle vCPU wakes for each hand-off between goroutines.
// On a 2-vCPU guest, with two CPU hogs busy a quarter of the time, the
// median rose 14% with both Ps and not at all with one. A 1024-pair
// /batch as batch-router's first answer ran the replicas' builds in
// parallel on both CPUs, and its median followed the hypervisor's steal:
// 4.4 ms in one set of ten runs, 5.7 ms in the next.
func setupCluster(in *inputs, chk *checker, rec *recorder, t *tally, reps int) (*cluster, float64, error) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	s := in.stream(kindRouteRouter, streamSetup)
	durs := make([]float64, 0, reps)
	var c *cluster
	for i := 0; i < reps; i++ {
		if c != nil {
			c.close()
			c = nil
		}
		reqs := make([]request, replicas+1)
		for j := range reqs {
			reqs[j] = s.fresh()
		}
		runtime.GC()
		t0 := time.Now()
		cc, err := startCluster(rec)
		if err != nil {
			return nil, 0, err
		}
		cl := newClient()
		type answer struct {
			status int
			body   []byte
			err    error
		}
		var ans []answer
		for j := range reqs {
			base := cc.routerURL
			if j < replicas {
				base = cc.replicaURLs[j]
			}
			status, body, err := cl.do(base, &reqs[j])
			ans = append(ans, answer{status, bytes.Clone(body), err}) // the client reuses body's buffer
			if err != nil || status/100 != 2 {
				break
			}
		}
		d := time.Since(t0)
		cl.close()
		for j, a := range ans {
			if !t.record(a.status, a.err) {
				err = fmt.Errorf("%s: status %d, %v", reqs[j].url, a.status, a.err)
				break
			}
			if cerr := chk.check(&reqs[j], a.body); cerr != nil {
				t.wrong.Add(1)
				err = fmt.Errorf("answer is wrong: %v", cerr)
				break
			}
		}
		if err != nil {
			cc.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, d.Seconds())
		c = cc
	}
	return c, median(durs), nil
}

// checkPass sends the workload's correctness set and a set of /paths
// requests one at a time and checks every answer; a wrong answer counts
// as a failed operation. For route-router it also fills the route
// cache with the hot set.
func checkPass(c *cluster, in *inputs, chk *checker, k kind, t *tally) {
	cl := newClient()
	defer cl.close()
	s := in.stream(k, streamCheck)
	var reqs []request
	switch k {
	case kindRouteRouter:
		for _, h := range in.hot {
			reqs = append(reqs, routeRequest(h[0], h[1]))
		}
		for i := 0; i < checkFresh; i++ {
			reqs = append(reqs, s.fresh())
		}
		for i := 0; i < checkFaultRoutes; i++ {
			reqs = append(reqs, s.faultRoute())
		}
	case kindBatchRouter:
		for i := 0; i < checkBatches; i++ {
			reqs = append(reqs, s.batch())
		}
	}
	// Theorem 5 paths are checked here only: /paths runs whole-graph
	// max-flow, and a 5% share of it in a timed mix took most of the CPU.
	// They go straight to replica 0, so that one replica builds the dense
	// adjacency whatever the seed, and peak_rss_mb does not depend on
	// which replicas own the pairs.
	ps := in.stream(kindPaths, streamCheck)
	for i := 0; i < checkPaths; i++ {
		reqs = append(reqs, ps.paths())
	}
	for i := range reqs {
		base := c.routerURL
		if reqs[i].kind == reqPaths {
			base = c.replicaURLs[0]
		}
		t.send(cl, base, &reqs[i], chk)
	}
}

// counterSnap holds the serving tier's cumulative counters.
type counterSnap struct {
	fanout, retries, shed uint64
	forwarded             []uint64
	hits, misses          uint64
	serverShed            uint64
}

func (c *cluster) counters() counterSnap {
	st := c.router.Status()
	s := counterSnap{fanout: st.SubbatchFanout, retries: st.Retries + st.SubbatchRetries, shed: st.Shed}
	for _, r := range st.Replicas {
		s.forwarded = append(s.forwarded, r.Forwarded)
	}
	for _, srv := range c.servers {
		h, m, _ := srv.Cache().Stats()
		s.hits += h
		s.misses += m
		s.serverShed += srv.Metrics().Sheds()
	}
	return s
}

// counterDelta reports the counters' movement over a phase that sent
// batches /batch requests.
func counterDelta(a, b counterSnap, batches int64, out map[string]float64) {
	out["router.subbatches_per_batch"] = 0
	if batches > 0 {
		out["router.subbatches_per_batch"] = float64(b.fanout-a.fanout) / float64(batches)
	}
	var total, most uint64
	for i := range b.forwarded {
		d := b.forwarded[i] - a.forwarded[i]
		total += d
		most = max(most, d)
	}
	out["router.share_max"] = 0
	if total > 0 {
		out["router.share_max"] = float64(most) / (float64(total) / float64(len(b.forwarded)))
	}
	out["router.retries"] = float64(b.retries - a.retries)
	out["router.shed"] = float64(b.shed - a.shed)
	out["server.cache_hit_ratio"] = 0
	if n := (b.hits - a.hits) + (b.misses - a.misses); n > 0 {
		out["server.cache_hit_ratio"] = float64(b.hits-a.hits) / float64(n)
	}
	out["server.shed"] = float64(b.serverShed - a.serverShed)
}

// traceServing runs the per-layer phases of a serving workload.
func traceServing(opt options, c *cluster, rec *recorder, in *inputs, chk *checker, clients []*client,
	work func(int64) func(int) int, t *tally, out map[string]float64) error {
	w := opt.workload
	base := c.routerURL

	s := in.stream(w.kind, streamOpen)
	res := openLoop(w.rate, share(opt.window, lagShare), len(clients), s.next, func(i int, req request) bool {
		return t.send(clients[i], base, &req, nil)
	})
	lat := summarize(res)
	lat.print(opt.out)
	fmt.Fprintf(opt.out, "latency: open loop at %g requests/s over %d connections, each request timed from when it was due\n", w.rate, len(clients))
	out["client.latency_p50_ms"] = lat.p50
	out["client.latency_p99_ms"] = lat.p99
	out["client.lag_p99_ms"] = lat.lagP99

	before, rt0 := c.counters(), readRuntime()
	units := closedLoop(len(clients), share(opt.window, counterShare), work(streamCounter)).units
	rt1, after := readRuntime(), c.counters()
	runtimeDelta(rt0, rt1, float64(units), out)
	var batches int64
	if w.kind == kindBatchRouter {
		batches = units / batchPairs
	}
	counterDelta(before, after, batches, out)
	out["runtime.peak_rss_load_mb"] = peakRSSMB()

	own := in.stream(w.kind, streamTraced)
	spans := tracedPass(c, rec, chk, t, base, own, share(opt.window, tracedShare), in.stream(w.kind, streamProbe), probesFor(w.kind))
	plain := plainPass(base, in.stream(w.kind, streamPlain), share(opt.window, plainShare), t)
	return finishTrace(opt, in, spans, plain, t, out)
}

// probesFor lists the single requests a traced run sends after the
// workload's own traffic, so that every served layer the workload does
// not reach still has spans: /route and /faultroute through the router
// unless the workload sends them, /batch unless the workload sends it.
func probesFor(k kind) []reqKind {
	switch k {
	case kindRouteRouter:
		return []reqKind{reqBatch}
	}
	return []reqKind{reqRoute, reqFaultRoute}
}

// tracedPass sends requests one after another, own traffic for dur then
// the probes, with span recording on. Answers are checked after their
// client span closes.
func tracedPass(c *cluster, rec *recorder, chk *checker, t *tally, base string, own *stream, dur time.Duration,
	ps *stream, probes []reqKind) []span {
	cl := newClient()
	defer cl.close()
	trace := 0
	send := func(req *request, base string, probe bool) {
		start := rec.now()
		status, body, err := cl.do(base, req)
		sp := span{Name: "client", Path: req.kind.path(), Start: start, End: rec.now(), Parent: -1, Trace: trace, Probe: probe}
		if req.kind == reqBatch {
			sp.Pairs = len(req.src)
		}
		rec.add(sp)
		trace++
		if t.record(status, err) {
			if cerr := chk.check(req, body); cerr != nil {
				t.wrong.Add(1)
				fmt.Fprintf(os.Stderr, "wrong answer: %v\n", cerr)
			}
		}
	}
	rec.on.Store(true)
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		req := own.next()
		send(&req, base, false)
	}
	for _, k := range probes {
		n := map[reqKind]int{reqRoute: probeRoutes, reqFaultRoute: probeFaultRoutes, reqBatch: probeBatches}[k]
		for i := 0; i < n; i++ {
			var req request
			switch k {
			case reqRoute:
				req = ps.fresh()
			case reqFaultRoute:
				req = ps.faultRoute()
			case reqBatch:
				req = ps.batch()
			}
			send(&req, c.routerURL, true)
		}
	}
	rec.on.Store(false)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// A health probe that was in flight may still append.
	return slices.Clone(rec.spans)
}

// plainPass sends the workload's mix one request after another with
// tracing off, drawn from its own stream so fresh pairs stay fresh,
// and returns the client latencies for the tracing overhead.
func plainPass(base string, s *stream, dur time.Duration, t *tally) []time.Duration {
	cl := newClient()
	defer cl.close()
	var lat []time.Duration
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		req := s.next()
		t0 := time.Now()
		ok := t.send(cl, base, &req, nil)
		if ok {
			lat = append(lat, time.Since(t0))
		}
	}
	return lat
}

// finishTrace turns the spans into per-layer metrics, runs the layer
// replays and writes the spans out.
func finishTrace(opt options, in *inputs, spans []span, plain []time.Duration, t *tally, out map[string]float64) error {
	own, probe := analyse(spans)
	own.account(opt.out, "workload")
	probe.account(opt.out, "probes")
	if len(plain) > 0 && len(own.clientDur) > 0 {
		tp, pp := percentile(own.clientDur, 0.5), percentile(plain, 0.5)
		fmt.Fprintf(opt.out, "tracing overhead: traced client p50 %.1f us over %d requests vs untraced %.1f us over %d (%+.1f%%)\n",
			us(tp), len(own.clientDur), us(pp), len(plain), 100*(float64(tp)/float64(pp)-1))
	}
	pick := func(a, b []time.Duration) []time.Duration {
		if len(a) > 0 {
			return a
		}
		return b
	}
	out["wire.edge_us_p50"] = us(percentile(pick(own.wire, probe.wire), 0.5))
	self := pick(own.routerSelf, probe.routerSelf)
	out["router.self_us_p50"] = us(percentile(self, 0.5))
	out["router.self_us_p99"] = us(percentile(self, 0.99))
	out["server.route_us_p50"] = us(percentile(pick(own.server["/route"], probe.server["/route"]), 0.5))
	out["server.faultroute_us_p50"] = us(percentile(pick(own.server["/faultroute"], probe.server["/faultroute"]), 0.5))
	bs := own
	if bs.batchPairs == 0 {
		bs = probe
	}
	out["server.batch_us_per_pair"] = 0
	if bs.batchPairs > 0 {
		out["server.batch_us_per_pair"] = float64(bs.batchNs) / 1e3 / float64(bs.batchPairs)
	}

	if err := replayCore(in, out); err != nil {
		return err
	}
	if err := replayFaultRoute(in, out); err != nil {
		return err
	}
	if err := replayNoC(opt.seed, t, out); err != nil {
		return err
	}
	if opt.spansDir != "" {
		name := fmt.Sprintf("%s-seed%d.jsonl", opt.workload.name, opt.seed)
		if err := writeSpans(opt.spansDir, name, spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(opt.out, "spans: %d written to %s\n", len(spans), name)
	}
	return nil
}
