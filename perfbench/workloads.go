package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
)

// kind selects the traffic a request stream generates.
type kind int

const (
	kindRouteRouter kind = iota // single-query GETs through the router
	kindBatchRouter             // binary /batch bodies through the router
	kindPaths                   // /paths requests: the replays and the correctness pass draw them
)

// workload is one named traffic mix; BENCHMARK.json at the repository
// root records why each was chosen. rate is the fixed offered rate of a
// traced run's open-loop phase in requests per second, about a sixth of
// the capacity measured at the first seeds on a 2-vCPU guest; the
// warm-up sends 1.5 s worth of it. It is stored here and never
// recomputed from a run. At half the capacity, the hypervisor's steal
// (2 to 16% of the CPU time) pushed the queue past the knee in some runs
// and not others, and the p50 of one seed moved by half between runs.
type workload struct {
	name string
	kind kind
	rate float64
}

var workloads = []workload{
	{name: "route-router", kind: kindRouteRouter, rate: 1000},
	{name: "batch-router", kind: kindBatchRouter, rate: 140},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. capacity_per_s counts
// answered pairs per second; cpu_us_per_op divides the process's CPU
// time by the same unit.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"capacity_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. The client latencies are
// the percentiles of the traced run's open-loop phase. They are not
// end-to-end metrics because no bound holds them on a 2-vCPU guest: a
// 1024-pair /batch runs on both CPUs at once, and its p50 went from
// 3.2 ms to 6.0 ms as the hypervisor's steal went from 2% to 18%; the
// route-router p99 of one seed read 4.5 to 13.6 ms as the steal went
// from 5 to 14%. Every workload reports every end-to-end metric, so the
// steady route-router p50 moved here with them.
var perLayer = []metricDef{
	{"client.latency_p50_ms", "ms", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"client.lag_p99_ms", "ms", "lower"},
	{"wire.edge_us_p50", "us", "lower"},
	{"router.self_us_p50", "us", "lower"},
	{"router.self_us_p99", "us", "lower"},
	{"router.subbatches_per_batch", "count", "lower"},
	{"router.share_max", "ratio", "lower"},
	{"router.retries", "count", "lower"},
	{"router.shed", "count", "lower"},
	{"server.route_us_p50", "us", "lower"},
	{"server.faultroute_us_p50", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.shed", "count", "lower"},
	{"server.batch_us_per_pair", "us", "lower"},
	{"core.routebatch_ns_per_pair", "ns", "lower"},
	{"core.route_ns", "ns", "lower"},
	{"core.disjointpaths_ms_p50", "ms", "lower"},
	{"core.case3_share", "ratio", "lower"},
	{"faultroute.route_us_p50", "us", "lower"},
	{"faultroute.fallback_share", "ratio", "lower"},
	{"noc.new_ms", "ms", "lower"},
	{"noc.run_ms.r01", "ms", "lower"},
	{"noc.run_ms.r02", "ms", "lower"},
	{"noc.run_ms.r03", "ms", "lower"},
	{"noc.run_ms.r04", "ms", "lower"},
	{"noc.run_ms.r05", "ms", "lower"},
	{"noc.ns_per_flit_event", "ns", "lower"},
	{"noc.delivered", "count", "higher"},
	{"noc.escape_ratio.r02", "ratio", "lower"},
	{"noc.avg_latency_cycles.r01", "cycles", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.sched_wait_p99_us", "us", "lower"},
	{"runtime.peak_rss_load_mb", "MB", "lower"},
}

// tally counts operations against failures. failed is a transport
// error or a non-2xx answer other than 503, refused a 503, wrong an
// answer that failed its correctness check.
type tally struct {
	attempted, failed, refused, wrong atomic.Int64
}

func (t *tally) failedTotal() int64 {
	return t.failed.Load() + t.refused.Load() + t.wrong.Load()
}

// printEnvironment writes the environment block that precedes the
// result line.
func printEnvironment(w io.Writer, opt options) {
	fmt.Fprintf(w, "env: commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		opt.commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(w, "env: workload=%s seed=%d seconds=%g trace=%v\n",
		opt.workload.name, opt.seed, opt.window.Seconds(), opt.trace)
	fmt.Fprintln(w, "env: transport=loopback TCP on 127.0.0.1; servers run in this process and no traffic leaves the host")
}

// cpuTicks reads the host's cumulative CPU time from /proc/stat: all
// of it, and the part the hypervisor gave to other guests (steal).
func cpuTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
