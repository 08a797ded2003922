// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in its own process against the serving tier
// (hbserve servers and router on loopback TCP), checks the answers, and
// prints its metrics as one JSON object on the last line of standard
// output. Its traced runs also replay the Theorem 5 path engine, the
// fault router and the NoC simulator as layers of their own.
//
//	perfbench --workload route-router --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it measures the per-layer metrics (spans, counters and
// layer replays). run.sh builds the binary from the checkout and runs
// it; BENCHMARK.json at the repository root lists the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings.
type options struct {
	workload workload
	seed     int64
	window   time.Duration // the measured time of the run
	trace    bool
	commit   string
	spansDir string // where a traced run writes its spans; "" keeps them in memory only
	out      io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "measured seconds of the run")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics, 1 per-layer metrics")
	commit := fs.String("commit", "unknown", "commit of the measured program, for the environment block")
	spansDir := fs.String("spans-dir", "", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	opt := options{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		commit:   *commit,
		spansDir: *spansDir,
		out:      stdout,
	}
	printEnvironment(stdout, opt)
	total0, steal0 := cpuTicks()
	res, err := runWorkload(opt)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(stdout, "env: the hypervisor stole %.1f%% of the host's CPU time during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload and assembles its result.
func runWorkload(opt options) (result, error) {
	var t tally
	ms, err := runServing(opt, &t)
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := result{
		Correct:   t.wrong.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failedTotal(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := ms[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(opt.out, "operations: %d attempted, %d failed (%d transport or non-2xx, %d refused with 503, %d wrong answers)\n",
		res.Attempted, res.Failed, t.failed.Load(), t.refused.Load(), t.wrong.Load())
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}
