package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sliceLen is the length of the slices a closed loop's throughput is
// also reported in.
const sliceLen = time.Second

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	units   int64
	elapsed time.Duration // from start until every worker stopped
	slices  []float64     // units per second in each whole slice
}

// closedLoop runs conns workers, each sending its next request only
// after the previous one completed, until dur has passed. work performs
// one operation and returns the units it completed (0 on failure).
func closedLoop(conns int, dur time.Duration, work func(worker int) int) closedResult {
	var units atomic.Int64
	perSlice := make([]atomic.Int64, int(dur/sliceLen)+2)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int64(work(w))
				units.Add(n)
				if i := int(time.Since(start) / sliceLen); i < len(perSlice) {
					perSlice[i].Add(n)
				}
			}
		}(w)
	}
	wg.Wait()
	res := closedResult{units: units.Load(), elapsed: time.Since(start)}
	for i := 0; i < int(dur/sliceLen); i++ {
		res.slices = append(res.slices, float64(perSlice[i].Load())/sliceLen.Seconds())
	}
	return res
}

// warmLoop sends n requests, about, closed-loop over conns workers; a
// fixed count leaves the servers in the same state on every run.
func warmLoop(conns int, n float64, work func(worker int) int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				work(w)
			}
		}(w)
	}
	wg.Wait()
}

// failedLatency is the latency recorded for a failed or refused
// request: it sorts above every real latency, so a failure counts as
// missing any latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// openResult is the outcome of an open-loop phase.
type openResult struct {
	lat []time.Duration // per job, from when it was due until it completed
	lag []time.Duration // per job, how late the generator handed it out
}

// openLoop offers jobs on a fixed schedule, job k due at start + k/rate,
// for window, to workers executors. next prepares the next job before
// its due time; exec runs one and reports success. A job waits for a
// free executor when all are busy, and that wait counts in its latency,
// which runs from when the job was due, not from when it was sent.
func openLoop[T any](rate float64, window time.Duration, workers int, next func() T, exec func(worker int, job T) bool) openResult {
	n := int(window.Seconds() * rate)
	if n < 1 {
		n = 1
	}
	type item struct {
		k   int
		job T
	}
	// Buffered to the number of sends, so the generator never blocks
	// on a backlog and keeps its schedule.
	jobs := make(chan item, n)
	res := openResult{lat: make([]time.Duration, n), lag: make([]time.Duration, n)}
	start := time.Now()
	due := func(k int) time.Time { return start.Add(time.Duration(float64(k) / rate * float64(time.Second))) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range jobs {
				ok := exec(w, it.job)
				d := time.Since(due(it.k))
				if !ok {
					d = failedLatency
				}
				res.lat[it.k] = d
			}
		}(w)
	}
	for k := 0; k < n; k++ {
		job := next()
		d := due(k)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		res.lag[k] = time.Since(d)
		jobs <- item{k, job}
	}
	close(jobs)
	wg.Wait()
	return res
}

// percentile returns the nearest-rank q-quantile of d, which it sorts.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSnap is a snapshot of the Go runtime counters the traced run
// turns into per-operation deltas.
type runtimeSnap []metrics.Sample

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	s := make(runtimeSnap, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeDelta reports allocation per unit of work, the GC's share of
// CPU and the 99th percentile scheduler wait between two snapshots.
func runtimeDelta(a, b runtimeSnap, units float64, out map[string]float64) {
	u := func(i int) float64 { return float64(b[i].Value.Uint64() - a[i].Value.Uint64()) }
	f := func(i int) float64 { return b[i].Value.Float64() - a[i].Value.Float64() }
	if units <= 0 {
		units = 1
	}
	out["runtime.alloc_bytes_per_op"] = u(0) / units
	out["runtime.allocs_per_op"] = u(1) / units
	out["runtime.gc_cpu_frac"] = 0
	if total := f(3); total > 0 {
		out["runtime.gc_cpu_frac"] = f(2) / total
	}
	ha, hb := a[4].Value.Float64Histogram(), b[4].Value.Float64Histogram()
	var total uint64
	counts := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	out["runtime.sched_wait_p99_us"] = 0
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			// Buckets[i+1] is the bucket's upper edge; the last bucket
			// is open, so fall back to its lower edge.
			edge := hb.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = hb.Buckets[i]
			}
			out["runtime.sched_wait_p99_us"] = edge * 1e6
			break
		}
	}
}

func fmtSlices(v []float64) string {
	b := make([]byte, 0, 8*len(v))
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, x, 'f', 0, 64)
	}
	return string(b)
}

// latencySlices is how many consecutive slices an open-loop phase's
// latency percentiles are taken over.
const latencySlices = 5

// slicedLatency splits an open-loop phase's jobs into latencySlices
// consecutive slices by due time, takes the q-quantile within each and
// returns the median over the slices. A host stall that backs up the
// queue inflates the slice it falls in, not the whole run.
func slicedLatency(lat []time.Duration, q float64) (value time.Duration, perSlice int) {
	perSlice = max(1, len(lat)/latencySlices)
	var vals []float64
	for i := 0; i+perSlice <= len(lat) && len(vals) < latencySlices; i += perSlice {
		s := append([]time.Duration(nil), lat[i:i+perSlice]...)
		vals = append(vals, float64(percentile(s, q)))
	}
	return time.Duration(median(vals)), perSlice
}

// latencySummary condenses an open-loop phase. P50 and P99 are each
// the median over the phase's slices of the slice's percentile; the
// whole-phase percentiles are printed beside them.
type latencySummary struct {
	samples  int
	perSlice int
	p50      float64
	p99      float64
	wholeP50 float64
	wholeP99 float64
	max      float64
	lagP99   float64
}

func summarize(res openResult) latencySummary {
	p50, per := slicedLatency(res.lat, 0.50)
	p99, _ := slicedLatency(res.lat, 0.99)
	all := append([]time.Duration(nil), res.lat...)
	return latencySummary{
		samples: len(res.lat), perSlice: per, p50: ms(p50), p99: ms(p99),
		wholeP50: ms(percentile(all, 0.5)), wholeP99: ms(percentile(all, 0.99)), max: ms(percentile(all, 1)),
		lagP99: ms(percentile(append([]time.Duration(nil), res.lag...), 0.99)),
	}
}

// print writes the summary.
func (s latencySummary) print(w io.Writer) {
	fmt.Fprintf(w, "latency: %d samples in %d slices of %d; median slice p50 %.3f ms, p99 %.3f ms; whole phase p50 %.3f ms, p99 %.3f ms, max %.3f ms; generator lag p99 %.3f ms\n",
		s.samples, latencySlices, s.perSlice, s.p50, s.p99, s.wholeP50, s.wholeP99, s.max, s.lagP99)
}
