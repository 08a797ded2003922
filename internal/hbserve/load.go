package hbserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator replays query mixes against a running hbd and
// records the serving-performance baseline (EXPERIMENTS.md E-SV). Two
// mixes mirror noc's traffic patterns at the serving layer:
//
//   - uniform: every request draws a fresh random (u,v) pair, so the
//     route cache sees mostly misses on large instances — the cold-path
//     number;
//   - permutation: a fixed random permutation pairs each node with one
//     destination and requests cycle through those pairs, so after one
//     lap every request is a cache hit — the warm-path number.
//
// Pacing is open-loop at a target QPS (a catch-up dispatcher sends
// whatever the elapsed time says is due, so the target is reachable well
// past one request per timer tick), which is what exposes queueing once
// the service saturates; latencies are measured per request and reported
// as percentiles.
//
// Batch mode (Batch > 0) POSTs columnar /batch bodies of Batch pairs
// each — prebuilt before the window opens so the client measures the
// server, not its own encoder — in either codec, and reports pair
// throughput next to request throughput. Comparing its routes_per_sec
// against the single-query baseline is EXPERIMENTS.md E-BQ.

// LoadConfig parameterises one load run.
type LoadConfig struct {
	BaseURL  string        // e.g. http://127.0.0.1:8080
	M, N     int           // instance to query
	Endpoint string        // "route" or "paths"; batch mode: the op
	Mix      string        // "uniform" or "permutation"
	QPS      int           // target request rate
	Duration time.Duration // measured window
	Workers  int           // concurrent requesters; <= 0 means 32
	Seed     int64
	Batch    int    // pairs per request; 0 = single-query GETs
	Codec    string // batch mode: "json" or "bin" ("" = json)
}

// LoadResult is the measured outcome of one (endpoint, mix) run.
type LoadResult struct {
	Endpoint    string  `json:"endpoint"`
	Mix         string  `json:"mix"`
	Batch       int     `json:"batch,omitempty"`
	Codec       string  `json:"codec,omitempty"`
	TargetQPS   int     `json:"target_qps"`
	DurationSec float64 `json:"duration_sec"`
	Requests    int     `json:"requests"`
	Non2xx      int     `json:"non_2xx"`
	AchievedQPS float64 `json:"achieved_qps"`
	// Pairs answered (single mode: one per 2xx request; batch mode:
	// counted from each response's own pair count, not assumed) and the
	// resulting route throughput — the batch-vs-single comparison axis.
	Pairs        int     `json:"pairs"`
	RoutesPerSec float64 `json:"routes_per_sec"`
	// LostPairs counts pairs missing from 2xx batch responses: pairs the
	// server accepted but silently failed to answer. Rejected requests
	// are visible in Non2xx instead; a scatter-gather router that
	// retries sub-batches correctly keeps this at exactly zero even
	// with a replica killed mid-load.
	LostPairs int `json:"lost_pairs"`
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
}

// loadBatchBodies bounds how many distinct request bodies batch mode
// prebuilds; beyond it the rotation repeats (batches are never cached,
// so repeats still measure compute).
const loadBatchBodies = 128

// Load runs one configured mix to completion.
func Load(cfg LoadConfig) (LoadResult, error) {
	res := LoadResult{
		Endpoint:    cfg.Endpoint,
		Mix:         cfg.Mix,
		Batch:       cfg.Batch,
		TargetQPS:   cfg.QPS,
		DurationSec: cfg.Duration.Seconds(),
	}
	if cfg.QPS <= 0 || cfg.Duration <= 0 {
		return res, fmt.Errorf("hbserve: load needs positive qps and duration")
	}
	order, err := orderOf(Dims{M: cfg.M, N: cfg.N})
	if err != nil {
		return res, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 32
	}
	// Little's law: sustaining qps with per-request latency L needs at
	// least qps*L in-flight requests. A fixed pool silently converts the
	// open-loop generator into a closed loop once the target rate
	// exceeds workers/latency — achieved_qps then tracks the pool, not
	// the target. Budgeting L at 50ms (a loaded router's tail, not its
	// median) keeps the configured pool as a floor and scales up with
	// the target so the dispatcher's offered rate is actually sendable.
	if floor := cfg.QPS / 20; floor > workers {
		workers = floor
		if workers > 512 {
			workers = 512
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(order)
	next := makePairSource(cfg.Mix, rng, perm, order)
	if next == nil {
		return res, fmt.Errorf("hbserve: unknown mix %q (want uniform or permutation)", cfg.Mix)
	}

	var (
		bodies [][]byte
		ct     string
	)
	if cfg.Batch > 0 {
		res.Codec = cfg.Codec
		if res.Codec == "" {
			res.Codec = "json"
		}
		if bodies, ct, err = makeBatchBodies(cfg, res.Codec, next); err != nil {
			return res, err
		}
	}

	client := newLoadClient(workers)
	// The transport is private to this run; dropping its keep-alive
	// connections on the way out lets the target drain promptly instead
	// of waiting for idle conns to age out.
	defer client.CloseIdleConnections()
	var (
		mu            sync.Mutex
		latencies     []time.Duration
		non2xx        atomic.Int64
		pairsAnswered atomic.Int64
		wg            sync.WaitGroup
	)
	base := strings.TrimRight(cfg.BaseURL, "/")
	record := func(enq time.Time, ok bool) {
		// Latency is measured from enqueue, not from the worker picking
		// the job up: with a deep queue the wait in line is part of what
		// the client observes, and hiding it would let a saturated
		// server post flattering percentiles.
		lat := time.Since(enq)
		if !ok {
			// Errors are counted exactly once, in non2xx, and excluded
			// from the latency population: a fast 503 from load shedding
			// would otherwise both drag the percentiles down and be
			// double-counted in Requests (len(latencies) + non2xx).
			non2xx.Add(1)
			return
		}
		mu.Lock()
		latencies = append(latencies, lat)
		mu.Unlock()
	}

	// The queue holds a fraction of a second of backlog before the
	// dispatcher sheds: deep enough that a transient latency spike
	// doesn't immediately drop offered load (the old workers-deep
	// channel shed at the first stall, capping achieved_qps below
	// target), shallow enough that shedding still engages when the
	// target is genuinely unsustainable.
	type loadJob struct {
		pair [2]int
		enq  time.Time
	}
	jobs := make(chan loadJob, 16*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for job := range jobs {
				if cfg.Batch > 0 {
					resp, err := client.Post(base+"/batch", ct, bytes.NewReader(bodies[job.pair[0]]))
					ok := err == nil
					if err == nil {
						buf.Reset()
						_, rerr := buf.ReadFrom(resp.Body)
						resp.Body.Close()
						ok = rerr == nil && resp.StatusCode/100 == 2
						if ok {
							if n, cerr := countBatchPairs(res.Codec, buf.Bytes()); cerr == nil {
								pairsAnswered.Add(int64(n))
							}
						}
					}
					record(job.enq, ok)
					continue
				}
				url := fmt.Sprintf("%s/%s?m=%d&n=%d&u=%d&v=%d",
					base, cfg.Endpoint, cfg.M, cfg.N, job.pair[0], job.pair[1])
				resp, err := client.Get(url)
				ok := err == nil
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode/100 == 2
				}
				record(job.enq, ok)
			}
		}()
	}

	// Pair generation happens on the dispatch goroutine so the rng needs
	// no lock; a full jobs channel sheds load (open-loop: the due request
	// is dropped, not queued without bound).
	body := 0
	dispatch(cfg.QPS, cfg.Duration, func() bool {
		var job loadJob
		if cfg.Batch > 0 {
			job.pair = [2]int{body % len(bodies), 0}
			body++
		} else {
			job.pair = next()
		}
		job.enq = time.Now()
		select {
		case jobs <- job:
			return true
		default:
			return false
		}
	})
	close(jobs)
	wg.Wait()

	res.Requests = len(latencies) + int(non2xx.Load())
	res.Non2xx = int(non2xx.Load())
	res.AchievedQPS = float64(res.Requests) / cfg.Duration.Seconds()
	res.Pairs = res.Requests - res.Non2xx
	if cfg.Batch > 0 {
		res.Pairs = int(pairsAnswered.Load())
		if lost := (res.Requests-res.Non2xx)*cfg.Batch - res.Pairs; lost > 0 {
			res.LostPairs = lost
		}
	}
	res.RoutesPerSec = float64(res.Pairs) / cfg.Duration.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		res.LatencyMS.P50 = ms(percentile(latencies, 0.50))
		res.LatencyMS.P90 = ms(percentile(latencies, 0.90))
		res.LatencyMS.P99 = ms(percentile(latencies, 0.99))
		res.LatencyMS.Max = ms(latencies[len(latencies)-1])
	}
	return res, nil
}

// newLoadClient returns an http.Client sized for `workers` concurrent
// requesters against a single host. The default transport keeps only
// MaxIdleConnsPerHost=2 idle connections, so at 32 workers most
// requests would pay a fresh TCP handshake and the client, not the
// server, becomes the bottleneck at high -qps.
func newLoadClient(workers int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 2 * workers
	tr.MaxIdleConnsPerHost = workers
	return &http.Client{Timeout: 10 * time.Second, Transport: tr}
}

// dispatch paces offer() open-loop at qps for the duration: every
// millisecond it offers however many requests the elapsed time says are
// due, so targets far beyond the timer resolution are reachable. A
// false return means the worker pool was saturated and the request was
// shed; the catch-up burst after a stall is bounded so a long GC pause
// cannot produce a thundering herd.
func dispatch(qps int, duration time.Duration, offer func() bool) (offered, shed int) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	start := time.Now()
	deadline := start.Add(duration)
	for now := range tick.C {
		if now.After(deadline) {
			return offered, shed
		}
		due := int(float64(qps) * now.Sub(start).Seconds())
		if limit := offered + qps/100 + 64; due > limit {
			due = limit
		}
		for offered < due {
			if !offer() {
				shed++
			}
			offered++
		}
	}
	return offered, shed
}

// makeBatchBodies prebuilds the rotation of /batch request bodies for
// one run, drawing pairs from the mix source.
func makeBatchBodies(cfg LoadConfig, codec string, next func() [2]int) ([][]byte, string, error) {
	if _, ok := batchOpCodes[cfg.Endpoint]; !ok {
		return nil, "", fmt.Errorf("hbserve: batch load endpoint %q is not a batch op", cfg.Endpoint)
	}
	count := int(float64(cfg.QPS) * cfg.Duration.Seconds())
	if count > loadBatchBodies {
		count = loadBatchBodies
	}
	if count < 1 {
		count = 1
	}
	bodies := make([][]byte, count)
	src := make([]int, cfg.Batch)
	dst := make([]int, cfg.Batch)
	for k := range bodies {
		for i := range src {
			p := next()
			src[i], dst[i] = p[0], p[1]
		}
		switch codec {
		case "json":
			bodies[k] = EncodeBatchJSONRequest(cfg.Endpoint, cfg.M, cfg.N, nil, src, dst)
		case "bin":
			var err error
			if bodies[k], err = EncodeBatchBinRequest(cfg.Endpoint, cfg.M, cfg.N, nil, src, dst); err != nil {
				return nil, "", err
			}
		default:
			return nil, "", fmt.Errorf("hbserve: unknown batch codec %q (want json or bin)", codec)
		}
	}
	ct := ctJSON
	if codec == "bin" {
		ct = ctBatchBin
	}
	return bodies, ct, nil
}

// countBatchPairs extracts the answered-pair count from a 2xx /batch
// response body without a full decode: the binary header carries it at
// a fixed offset, the JSON body in its "count" field. This is what
// lost-pair accounting audits — the response's own claim of how many
// pairs it answered, not the client's assumption that all were.
func countBatchPairs(codec string, body []byte) (int, error) {
	if codec == "bin" {
		// 4-byte frame length, then magic(4) ver(2) op(1) pad(1) npairs(4).
		if len(body) < 16 || binary.LittleEndian.Uint32(body[4:]) != batchBinMagic {
			return 0, fmt.Errorf("hbserve: short or unframed binary batch response")
		}
		return int(binary.LittleEndian.Uint32(body[12:])), nil
	}
	i := bytes.Index(body, []byte(`"count":`))
	if i < 0 {
		return 0, fmt.Errorf("hbserve: batch response without a count field")
	}
	n, seen := 0, false
	for i += len(`"count":`); i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		n = n*10 + int(body[i]-'0')
		seen = true
	}
	if !seen {
		return 0, fmt.Errorf("hbserve: batch response with non-numeric count")
	}
	return n, nil
}

// makePairSource returns a generator of (u,v) query pairs for the mix;
// nil for an unknown mix.
func makePairSource(mix string, rng *rand.Rand, perm []int, order int) func() [2]int {
	switch mix {
	case "uniform":
		return func() [2]int {
			u := rng.Intn(order)
			v := rng.Intn(order)
			for v == u {
				v = rng.Intn(order)
			}
			return [2]int{u, v}
		}
	case "permutation":
		i := 0
		return func() [2]int {
			u := i % order
			i++
			v := perm[u]
			if v == u { // a fixed point would query u==u; pair it onward
				v = perm[(u+1)%order]
			}
			return [2]int{u, v}
		}
	}
	return nil
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// BenchReport is the serialised BENCH_serve.json: the load-generator
// baseline plus the cache counters scraped from /metrics after the run.
type BenchReport struct {
	M       int          `json:"m"`
	N       int          `json:"n"`
	Results []LoadResult `json:"results"`
	// BatchSpeedup is best batch routes_per_sec over best single-query
	// routes_per_sec across the runs in Results; 0 when either side is
	// missing. The E-BQ acceptance gate reads it.
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
	Cache        struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		Dedups  uint64  `json:"dedups"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
}

// ComputeBatchSpeedup fills BatchSpeedup from Results.
func (b *BenchReport) ComputeBatchSpeedup() float64 {
	var single, batch float64
	for _, r := range b.Results {
		switch {
		case r.Batch > 0 && r.RoutesPerSec > batch:
			batch = r.RoutesPerSec
		case r.Batch == 0 && r.RoutesPerSec > single:
			single = r.RoutesPerSec
		}
	}
	if single > 0 && batch > 0 {
		b.BatchSpeedup = batch / single
	}
	return b.BatchSpeedup
}

// TotalNon2xx sums error responses across all runs; the CI smoke gates
// on it being zero.
func (b *BenchReport) TotalNon2xx() int {
	total := 0
	for _, r := range b.Results {
		total += r.Non2xx
	}
	return total
}

// ScrapeCacheStats fetches baseURL/metrics and fills b.Cache from the
// hbd_route_cache_* families. Errors name the endpoint so a failed
// scrape in a load run is distinguishable from the load itself failing.
func (b *BenchReport) ScrapeCacheStats(baseURL string) error {
	url := strings.TrimRight(baseURL, "/") + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("hbserve: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("hbserve: reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("hbserve: scraping %s: status %d", url, resp.StatusCode)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var target *uint64
		switch {
		case strings.HasPrefix(line, "hbd_route_cache_hits_total "):
			target = &b.Cache.Hits
		case strings.HasPrefix(line, "hbd_route_cache_misses_total "):
			target = &b.Cache.Misses
		case strings.HasPrefix(line, "hbd_route_cache_dedup_total "):
			target = &b.Cache.Dedups
		default:
			continue
		}
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", target); err != nil {
			return fmt.Errorf("hbserve: bad metrics line %q: %w", line, err)
		}
	}
	if total := b.Cache.Hits + b.Cache.Misses; total > 0 {
		b.Cache.HitRate = float64(b.Cache.Hits) / float64(total)
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (b *BenchReport) WriteFile(path string) error {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
