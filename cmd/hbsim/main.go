// Command hbsim runs the dynamic experiments: traffic simulation
// (E-S1), fault-tolerant routing sweeps (E-R10) and broadcast
// comparison (E-B1). Every network simulation runs on the noc engine.
//
//	hbsim -mode traffic -m 2 -n 4 -rate 0.05 -cycles 2000
//	    uniform/permutation traffic on HB vs HD vs H vs B at matched size
//	hbsim -mode faults -m 2 -n 4 -trials 200
//	    random fault sweep f = 1..m+3: delivery rate and stretch
//	hbsim -mode broadcast -m 2 -n 4
//	    flooding vs two-phase vs spanning-tree broadcast
//	hbsim -mode election -m 2 -n 4
//	    leader election: flood-max vs tree protocol (E-LE)
//	hbsim -mode faultdiam -m 2 -n 3 -trials 50
//	    exact diameter growth under random faults (E-FD)
//	hbsim -mode wormhole -m 2 -n 3 -rate 0.3 -cycles 3000
//	    flit-level wormhole: single VC deadlocks, dateline survives (E-W1)
//	hbsim -mode chaos -m 2 -n 3 -rate 0.05 -cycles 800
//	    dynamic fault injection: churn + adversarial min-cut schedules
//	    with in-flight rerouting; exits 1 on any Remark-10 violation (E-CH)
//	hbsim -mode noc -m 3 -n 3 -rate 0.5 -cycles 2000 -vcs 4 -bufdepth 2 -out BENCH_noc.json
//	    event-driven NoC engine (E-NC): engine flit throughput,
//	    HB vs hyper-deBruijn saturation curves with escape-channel
//	    adaptive routing, collectives under load, churn resilience;
//	    exits 1 if any adaptive run deadlocks
//
// Exit status: 0 on success, 1 on a simulation or gate failure, 2 on a
// usage error (unknown mode or pattern, malformed flags).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/internal/broadcast"
	"repro/internal/butterfly"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/faultroute"
	faultsim "repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hypercube"
	"repro/internal/hyperdebruijn"
	"repro/internal/noc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks bad invocations (exit 2); every other error exits 1.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "traffic", "traffic | faults | broadcast | election | faultdiam | wormhole | chaos | noc")
	m := fs.Int("m", 2, "hypercube dimension")
	n := fs.Int("n", 4, "butterfly dimension")
	rate := fs.Float64("rate", 0.05, "injection rate per node per cycle")
	cycles := fs.Int("cycles", 2000, "simulated cycles")
	trials := fs.Int("trials", 200, "trials per fault count")
	seed := fs.Int64("seed", 1, "rng seed")
	vcs := fs.Int("vcs", 4, "virtual channels per link (noc)")
	bufdepth := fs.Int("bufdepth", 2, "flit buffer depth per (link, VC) (noc)")
	pattern := fs.String("pattern", "uniform", "noc traffic pattern: uniform | permutation")
	out := fs.String("out", "", "write the noc benchmark artifact (JSON) to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if fs.NArg() > 0 {
		err = usagef("unexpected argument %q", fs.Arg(0))
	} else {
		switch *mode {
		case "traffic":
			err = traffic(stdout, *m, *n, *rate, *cycles, *seed)
		case "faults":
			err = faults(stdout, *m, *n, *trials, *seed)
		case "broadcast":
			err = bcast(stdout, *m, *n)
		case "election":
			err = elect(stdout, *m, *n, *seed)
		case "faultdiam":
			err = faultDiam(stdout, *m, *n, *trials, *seed)
		case "wormhole":
			err = worm(stdout, *m, *n, *rate, *cycles, *seed)
		case "chaos":
			err = chaos(stdout, *m, *n, *rate, *cycles, *seed)
		case "noc":
			var pat noc.Pattern
			pat, err = parsePattern(*pattern)
			if err == nil {
				err = nocMode(stdout, nocParams{
					m: *m, n: *n, rate: *rate, cycles: *cycles, seed: *seed,
					vcs: *vcs, bufDepth: *bufdepth, pattern: pat, out: *out,
				})
			}
		default:
			err = usagef("unknown mode %q", *mode)
		}
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "hbsim:", err)
	if _, ok := err.(*usageError); ok {
		fs.Usage()
		return 2
	}
	return 1
}

func parsePattern(s string) (noc.Pattern, error) {
	switch s {
	case "uniform":
		return noc.Uniform, nil
	case "permutation":
		return noc.Permutation, nil
	}
	return 0, usagef("unknown pattern %q (uniform | permutation)", s)
}

// elect compares the two leader-election protocols (E-LE).
func elect(w io.Writer, m, n int, seed int64) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, hb.Order())
	for v, p := range rng.Perm(hb.Order()) {
		ids[v] = int64(p)
	}
	flood, err := election.FloodMax(hb, ids)
	if err != nil {
		return err
	}
	tree, err := election.TreeElect(hb, ids, hb.Identity())
	if err != nil {
		return err
	}
	if flood.Leader != tree.Leader {
		return fmt.Errorf("protocols disagree: %d vs %d", flood.Leader, tree.Leader)
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\trounds\tmessages")
	fmt.Fprintf(tw, "flood-max\t%d\t%d\n", flood.Rounds, flood.Messages)
	fmt.Fprintf(tw, "tree (convergecast+broadcast)\t%d\t%d\n", tree.Rounds, tree.Messages)
	tw.Flush()
	fmt.Fprintf(w, "\nelected leader: %s (id %d) on HB(%d,%d), diameter %d\n",
		hb.VertexLabel(flood.Leader), ids[flood.Leader], m, n, hb.DiameterFormula())
	return nil
}

// faultDiam measures the exact diameter growth under random fault sets
// of each size up to m+3 (E-FD).
func faultDiam(w io.Writer, m, n, trials int, seed int64) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	if hb.Order() > 4096 {
		return fmt.Errorf("faultdiam needs order <= 4096 (HB(%d,%d) has %d nodes)", m, n, hb.Order())
	}
	rng := rand.New(rand.NewSource(seed))
	base := hb.DiameterFormula()
	fmt.Fprintf(w, "fault diameter of HB(%d,%d) (fault-free diameter %d), %d random trials per count:\n",
		m, n, base, trials)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "faults\tworst fault diameter\tgrowth")
	for f := 1; f <= hb.M()+3; f++ {
		worst := 0
		for trial := 0; trial < trials; trial++ {
			fd, err := faultroute.FaultDiameter(hb, rng.Perm(hb.Order())[:f])
			if err != nil {
				return err
			}
			if fd > worst {
				worst = fd
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t+%d\n", f, worst, worst-base)
	}
	tw.Flush()
	return nil
}

// worm runs flit-level wormhole switching on the noc engine (E-W1):
// single virtual channel versus the dateline discipline at the same
// load.
func worm(w io.Writer, m, n int, rate float64, cycles int, seed int64) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tVCs\tdeadlocked\tinjected\tdelivered\tavg latency")
	runOne := func(name string, vcs int, policy noc.VCPolicy) error {
		res, err := simulate(hb, noc.Config{
			Cycles: cycles, Rate: rate, PacketLen: 4, BufDepth: 1, VCs: vcs, Seed: seed,
			MaxRoute: hb.DiameterFormula(), Route: hb.AppendRoute, Policy: policy,
		})
		if err != nil {
			return err
		}
		dead := "no"
		if res.Deadlocked {
			dead = fmt.Sprintf("yes (cycle %d)", res.DeadCycle)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%.2f\n",
			name, vcs, dead, res.Injected, res.Delivered, res.AvgLatency)
		return nil
	}
	if err := runOne("single VC", 1, noc.SingleVC); err != nil {
		return err
	}
	if err := runOne("dateline", 2, noc.HBDateline(hb)); err != nil {
		return err
	}
	tw.Flush()
	fmt.Fprintf(w, "\nwormhole switching on HB(%d,%d): 4-flit worms, 1-flit buffers per VC\n", m, n)
	return nil
}

// simulate builds a noc engine for cfg on g and runs it once.
func simulate(g graph.Graph, cfg noc.Config) (noc.Result, error) {
	e, err := noc.New(g, cfg)
	if err != nil {
		return noc.Result{}, err
	}
	return e.Run()
}

// chaos runs the dynamic fault-injection experiment (E-CH) on the noc
// engine: seeded schedules fail and recover nodes mid-run while the
// fault router re-paths in-flight single-flit worms. Within the m+3
// bound every deliverable packet must arrive — Dropped counts only the
// unavoidable losses (destination down, a flit at the failing node) —
// and no reroute may fail while the live fault count is within the
// guarantee. Any violation exits nonzero, so CI can gate on this mode
// directly.
func chaos(w io.Writer, m, n int, rate float64, cycles int, seed int64) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	inject := cycles / 2 // second half drains
	bound := hb.M() + 3

	churn, err := faultsim.RandomChurn(faultsim.ChurnConfig{
		Order: hb.Order(), Cycles: inject, MaxLive: bound,
		Rate: 0.1, MinDwell: 20, MaxDwell: 80, Seed: seed,
	})
	if err != nil {
		return err
	}
	// Adversarial: repeatedly fail m+3 of one node's m+4 neighbors — the
	// worst placement that still respects the guarantee.
	pivot := hb.Order() / 2
	adv, err := faultsim.AdversarialAdjacent(hb, pivot, bound, 5, 3, 60)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "schedule\tmax live\tinjected\tdelivered\tdropped\tskipped\treroutes\tin flight\tviolations\tdelivered frac")
	violations, stuck := 0, 0
	runOne := func(name string, sch faultsim.Schedule) error {
		r, err := faultroute.New(hb, nil)
		if err != nil {
			return err
		}
		rr := &noc.FaultRerouter{R: r}
		// Reroutes and the detours they stack up run longer than the
		// fault-free diameter; 4x leaves room for several in a row.
		res, err := simulate(hb, noc.Config{
			Cycles: cycles, InjectCycles: inject, Rate: rate, Seed: seed,
			PacketLen: 1, BufDepth: 1, VCs: 2, MaxRoute: 4 * hb.DiameterFormula(),
			Route: hb.AppendRoute, Policy: noc.HBDateline(hb), Schedule: sch, Rerouter: rr,
		})
		if err != nil {
			return err
		}
		deliverable := res.Injected - res.Dropped
		frac := 1.0
		if deliverable > 0 {
			frac = float64(res.Delivered) / float64(deliverable)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\n",
			name, sch.MaxLive(hb.Order()), res.Injected, res.Delivered, res.Dropped,
			res.Skipped, rr.Reroutes.Load(), res.InFlight, rr.Violations.Load(), frac)
		violations += int(rr.Violations.Load())
		stuck += res.InFlight
		return nil
	}
	if err := runOne("random churn", churn); err != nil {
		return err
	}
	if err := runOne("adversarial min-cut", adv); err != nil {
		return err
	}
	tw.Flush()
	fmt.Fprintf(w, "\ndynamic fault injection on HB(%d,%d), guarantee bound m+3 = %d live faults\n", m, n, bound)
	if violations > 0 {
		return fmt.Errorf("%d reroute failures within the m+3 guarantee (Remark 10 violated)", violations)
	}
	if stuck > 0 {
		return fmt.Errorf("%d packets undelivered after the drain window", stuck)
	}
	fmt.Fprintln(w, "gate: every deliverable packet arrived; zero reroute failures within the guarantee")
	return nil
}

// traffic compares HB(m,n) with HD(m,n) and the classical networks at
// (approximately) matched node counts under two traffic patterns (E-S1),
// plus adaptive routing on HB. Packets are single-flit worms on one VC,
// so the comparison is meaningful only below saturation (DESIGN.md §4).
func traffic(w io.Writer, m, n int, rate float64, cycles int, seed int64) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	hd := hyperdebruijn.MustNew(m, n)
	cube := hypercube.MustNew(m + n)
	bf := butterfly.MustNew(m + n)

	entries := []struct {
		name  string
		g     graph.Graph
		route func(u, v int, buf []int) []int
	}{
		{fmt.Sprintf("HB(%d,%d) [%d nodes]", m, n, hb.Order()), hb, hb.AppendRoute},
		{fmt.Sprintf("HD(%d,%d) [%d nodes]", m, n, hd.Order()), hd, noc.AppendPath(hd.Route)},
		{fmt.Sprintf("H(%d)    [%d nodes]", m+n, cube.Order()), cube, noc.AppendPath(cube.Route)},
		{fmt.Sprintf("B(%d)    [%d nodes]", m+n, bf.Order()), bf, bf.AppendRoute},
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "pattern\tnetwork\tinjected\tdelivered\tavg latency\tmax latency\tthroughput\tdeadlocked")
	row := func(pat noc.Pattern, name string, res noc.Result) {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\t%d\t%.3f\t%v\n",
			pat, name, res.Injected, res.Delivered, res.AvgLatency,
			res.MaxLatency, res.Throughput, res.Deadlocked)
	}
	for _, pat := range []noc.Pattern{noc.Uniform, noc.Permutation} {
		// Every route here is within 2(m+n) hops.
		base := noc.Config{
			Cycles: cycles, Rate: rate, PacketLen: 1, BufDepth: 1, VCs: 1,
			Pattern: pat, Seed: seed, MaxRoute: 2 * (m + n),
		}
		for _, e := range entries {
			cfg := base
			cfg.Route, cfg.Policy = e.route, noc.SingleVC
			res, err := simulate(e.g, cfg)
			if err != nil {
				return err
			}
			row(pat, e.name, res)
		}
		cfg := base
		cfg.VCs, cfg.Adaptive = 4, hbAdaptiveConfig(hb)
		res, err := simulate(hb, cfg)
		if err != nil {
			return err
		}
		row(pat, fmt.Sprintf("HB(%d,%d) adaptive", m, n), res)
	}
	tw.Flush()
	return nil
}

// faults sweeps the fault count from 1 to m+4: within the guarantee
// (<= m+3) the delivery rate must be 1.0; at m+4 targeted placements can
// disconnect the network.
func faults(w io.Writer, m, n, trials int, seed int64) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "faults\ttrials\tdelivered\tconnected\tavg stretch\tstrategy optimal/greedy/disjoint/BFS")
	for f := 1; f <= hb.M()+4; f++ {
		delivered, connected := 0, 0
		var stretchSum float64
		var r *faultroute.Router
		stats := [4]int{}
		for trial := 0; trial < trials; trial++ {
			u, v := rng.Intn(hb.Order()), rng.Intn(hb.Order())
			if u == v {
				v = (v + 1) % hb.Order()
			}
			faults := make([]int, 0, f)
			used := map[int]bool{u: true, v: true}
			for len(faults) < f {
				x := rng.Intn(hb.Order())
				if !used[x] {
					used[x] = true
					faults = append(faults, x)
				}
			}
			r, err = faultroute.New(hb, faults)
			if err != nil {
				return err
			}
			if r.Connected() {
				connected++
			}
			p, err := r.Route(u, v)
			if err != nil {
				continue
			}
			delivered++
			stretchSum += float64(len(p)-1) / float64(max(1, hb.Distance(u, v)))
			stats[0] += r.Stats.Optimal
			stats[1] += r.Stats.Greedy
			stats[2] += r.Stats.Disjoint
			stats[3] += r.Stats.BFS
		}
		avgStretch := 0.0
		if delivered > 0 {
			avgStretch = stretchSum / float64(delivered)
		}
		note := ""
		if f <= hb.M()+3 && delivered != trials {
			note = "  <- GUARANTEE VIOLATED"
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.3f\t%d/%d/%d/%d%s\n",
			f, trials, delivered, connected, avgStretch, stats[0], stats[1], stats[2], stats[3], note)
	}
	tw.Flush()
	fmt.Fprintf(w, "\nguarantee bound: m+3 = %d faults (Theorem 5 / Remark 10)\n", hb.M()+3)
	return nil
}

func bcast(w io.Writer, m, n int) error {
	hb, err := core.New(m, n)
	if err != nil {
		return err
	}
	flood := broadcast.Flood(hb, hb.Identity())
	tree := broadcast.SpanningTree(hb, hb.Identity())
	two, _, err := broadcast.TwoPhase(hb, hb.Identity())
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\trounds\tmessages\treached")
	fmt.Fprintf(tw, "flooding\t%d\t%d\t%d\n", flood.Rounds, flood.Messages, flood.Reached)
	fmt.Fprintf(tw, "two-phase (structured)\t%d\t%d\t%d\n", two.Rounds, two.Messages, two.Reached)
	fmt.Fprintf(tw, "spanning tree\t%d\t%d\t%d\n", tree.Rounds, tree.Messages, tree.Reached)
	tw.Flush()
	fmt.Fprintf(w, "\nlower bound (diameter of HB(%d,%d)): %d rounds\n", m, n, hb.DiameterFormula())
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
