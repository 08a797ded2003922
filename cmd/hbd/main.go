// Command hbd is the hyper-butterfly topology-query daemon: a
// long-lived HTTP/JSON service answering routing questions that the
// one-shot CLIs (hbnet, hbcheck) recompute from scratch per invocation.
//
//	hbd -addr :8080                          serve queries
//	hbd -mode router -addr :8090 \
//	    -replicas http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//	                                         shard queries across a fleet
//
// Endpoints (all GET, JSON responses):
//
//	/route?m=2&n=3&u=0&v=95        shortest route + generator sequence
//	/paths?m=2&n=3&u=0&v=95        the m+4 disjoint paths (Theorem 5)
//	/faultroute?...&faults=3,17    fault-avoiding route (Remark 10)
//	/info?m=2&n=3                  order/edges/degree/diameter/connectivity
//	/estimate?m=2&n=3              exact diameter/distance histogram (<= 4,096 nodes)
//	/estimate?m=10&n=10&samples=4096   sampled diameter/distance evidence
//	                               (larger instances, or live=1)
//	/conformance?m=2&n=3           re-run the invariant registry
//	/metrics                       Prometheus text exposition
//	/healthz                       liveness
//
// /route and /paths responses are cached and byte-identical for
// identical queries. SIGINT/SIGTERM drain in-flight requests before
// exit. /batch, /faultroute, /conformance and /estimate refuse to start
// work past a per-request deadline (-timeout), overload sheds
// with 503 + Retry-After (-maxinflight), and handler panics answer 500
// and increment hbd_panics_total instead of killing the daemon.
//
// hbd does not load-test itself. Drive it with curl, as the serving
// smoke tests in CI do, and measure it with perfbench from the
// repository root (bash perfbench/run.sh --workload route-router or
// batch-router), which runs replicas behind the router and checks
// every answer.
//
// Every instance up to -maxorder nodes is served by label arithmetic,
// so a query against HB(10,10) (~10.5M nodes) answers from a cold
// daemon without building a graph.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/hbserve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "serve", "serve | router")
	addr := fs.String("addr", ":8080", "serve: listen address")
	poolMax := fs.Int("pool", 0, "serve: max resident HB instances (0 = default)")
	cacheSize := fs.Int("cache", 0, "serve: route-cache entries (0 = default, -1 disables)")
	shards := fs.Int("shards", 0, "serve: route-cache shards (0 = default)")
	maxOrder := fs.Int("maxorder", 0, "serve: max nodes of a served instance (0 = default 2^24)")
	grace := fs.Duration("grace", 10*time.Second, "serve: shutdown drain budget")
	timeout := fs.Duration("timeout", 0, "serve: per-request deadline (0 = default, negative disables)")
	maxInFlight := fs.Int("maxinflight", 0, "serve: 503 load-shedding bound (0 = default, negative disables)")

	replicas := fs.String("replicas", "", "router: comma-separated replica base URLs")
	vnodes := fs.Int("vnodes", 0, "router: virtual nodes per replica on the hash ring (0 = default)")
	queueDepth := fs.Int("queue", 0, "router: bounded forward queue depth (0 = default, negative disables)")
	attempts := fs.Int("attempts", 0, "router: max distinct replicas tried per request (0 = default)")
	probeInterval := fs.Duration("probeinterval", 0, "router: health probe cadence (0 = default)")
	probeTimeout := fs.Duration("probetimeout", 0, "router: per-probe deadline (0 = default)")
	eject := fs.Int("eject", 0, "router: consecutive failures before ejection (0 = default)")
	readmit := fs.Int("readmit", 0, "router: consecutive probe successes before re-admission (0 = default)")
	replication := fs.Int("replication", 0, "router: alive owners per key; a /batch goes whole to the least-loaded owner of its dims (0 = default 2)")

	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *mode {
	case "serve":
		srv := hbserve.NewServer(hbserve.Config{
			PoolMax:        *poolMax,
			MaxOrder:       *maxOrder,
			CacheSize:      *cacheSize,
			CacheShard:     *shards,
			RequestTimeout: *timeout,
			MaxInFlight:    *maxInFlight,
		})
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(stdout, "hbd: serving on %s (SIGTERM drains in-flight requests)\n", *addr)
		if err := srv.ListenAndServe(ctx, *addr, *grace); err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "hbd: drained cleanly")
		return 0

	case "router":
		rt, err := hbserve.NewRouter(hbserve.ClusterConfig{
			Replicas:       splitList(*replicas),
			VNodes:         *vnodes,
			QueueDepth:     *queueDepth,
			MaxAttempts:    *attempts,
			ForwardTimeout: *timeout,
			ProbeInterval:  *probeInterval,
			ProbeTimeout:   *probeTimeout,
			EjectAfter:     *eject,
			ReadmitAfter:   *readmit,
			Replication:    *replication,
		})
		if err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 2
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(stdout, "hbd: routing on %s over %d replicas (SIGTERM drains in-flight requests)\n",
			*addr, len(splitList(*replicas)))
		if err := rt.ListenAndServe(ctx, *addr, *grace); err != nil {
			fmt.Fprintf(stderr, "hbd: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "hbd: drained cleanly")
		return 0

	default:
		fmt.Fprintf(stderr, "hbd: unknown mode %q (want serve or router)\n", *mode)
		return 2
	}
}

// splitList splits a comma-separated flag, dropping empties.
func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
