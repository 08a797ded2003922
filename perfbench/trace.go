package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder's epoch on the monotonic clock.
type span struct {
	Name   string `json:"name"` // client, router, replica0..replica2
	Path   string `json:"path"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root or unlinked span
	Trace  int    `json:"trace"`  // client request id, -1 when unlinked
	Probe  bool   `json:"probe,omitempty"`
	Pairs  int    `json:"pairs,omitempty"` // client spans of /batch
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while recording is on. The program
// carries no request id from the router to its replicas, so spans are
// linked to their client request afterwards by time containment, which
// is exact while one client request is in flight at a time.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap records a span named name around every request h serves while
// recording is on. A nil recorder returns h unchanged.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{Name: name, Path: req.URL.Path, Start: start, End: r.now(), Parent: -1, Trace: -1})
	})
}

// link assigns every handler span to the client span that contains it
// and to its parent: the router span containing it, else the client
// span. Health probes are left unlinked.
func link(spans []span) {
	var clients []int
	for i := range spans {
		if spans[i].Name == "client" {
			clients = append(clients, i)
		}
	}
	slices.SortFunc(clients, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
	byTrace := map[int][]int{}
	for i := range spans {
		s := &spans[i]
		if s.Name == "client" || s.Path == "/healthz" {
			continue
		}
		// The last client span starting at or before s.
		j, _ := slices.BinarySearchFunc(clients, s.Start, func(c int, t int64) int {
			if spans[c].Start <= t {
				return -1
			}
			return 1
		})
		if j == 0 {
			continue
		}
		c := &spans[clients[j-1]]
		if s.End > c.End {
			continue
		}
		s.Trace, s.Parent = c.Trace, clients[j-1]
		byTrace[c.Trace] = append(byTrace[c.Trace], i)
	}
	for _, idx := range byTrace {
		for _, ri := range idx {
			if spans[ri].Name != "router" {
				continue
			}
			for _, ci := range idx {
				s := &spans[ci]
				if ci != ri && s.Name != "router" && s.Start >= spans[ri].Start && s.End <= spans[ri].End {
					s.Parent = ri
				}
			}
		}
	}
}

// unionLength is the length of [lo, hi] that the intervals cover, each
// clipped to [lo, hi] and overlaps counted once.
func unionLength(lo, hi int64, iv [][2]int64) int64 {
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	slices.SortFunc(c, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, end int64
	end = lo
	for _, x := range c {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, len(children))
	for i, c := range children {
		iv[i] = [2]int64{c.Start, c.End}
	}
	return parent.dur() - unionLength(parent.Start, parent.End, iv)
}

// spanStats are the per-layer numbers of a traced run.
type spanStats struct {
	clients    int // client spans considered
	unlinked   int // client spans without exactly one first-hop handler span
	viaRouter  int // client spans whose first hop was the router
	clientDur  []time.Duration
	wire       []time.Duration            // client span minus the first-hop span
	routerSelf []time.Duration            // router span minus its replica spans
	server     map[string][]time.Duration // replica span durations by path
	batchNs    int64                      // replica /batch time
	batchPairs int                        // pairs of the linked /batch client requests

	// Sums over the linked client spans, for the accounting line.
	clientSum, wireSum, routerSum, replicaSum int64
}

// analyse links the spans and derives per-layer numbers. Requests the
// workload sent itself and probe requests are kept apart: own holds the
// numbers over the workload's requests, probe over the probes.
func analyse(spans []span) (own, probe *spanStats) {
	link(spans)
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	own, probe = newSpanStats(), newSpanStats()
	for i, c := range spans {
		if c.Name != "client" {
			continue
		}
		st := own
		if c.Probe {
			st = probe
		}
		st.clients++
		st.clientDur = append(st.clientDur, time.Duration(c.dur()))
		if len(children[i]) != 1 {
			st.unlinked++
			continue
		}
		hop := spans[children[i][0]]
		st.clientSum += c.dur()
		st.wire = append(st.wire, time.Duration(c.dur()-hop.dur()))
		st.wireSum += c.dur() - hop.dur()
		reps := []span{hop}
		if hop.Name == "router" {
			st.viaRouter++
			reps = reps[:0]
			for _, j := range children[children[i][0]] {
				reps = append(reps, spans[j])
			}
			self := selfTime(hop, reps)
			st.routerSelf = append(st.routerSelf, time.Duration(self))
			st.routerSum += self
			st.replicaSum += hop.dur() - self
		} else {
			st.replicaSum += hop.dur()
		}
		for _, r := range reps {
			st.server[r.Path] = append(st.server[r.Path], time.Duration(r.dur()))
			if r.Path == "/batch" {
				st.batchNs += r.dur()
			}
		}
		if c.Path == "/batch" {
			st.batchPairs += c.Pairs
		}
	}
	return own, probe
}

func newSpanStats() *spanStats { return &spanStats{server: map[string][]time.Duration{}} }

// account prints how the client spans divide among the layers.
func (st *spanStats) account(w io.Writer, label string) {
	n := st.clients - st.unlinked
	if n <= 0 {
		fmt.Fprintf(w, "trace %s: no linked client spans\n", label)
		return
	}
	f := func(v int64) float64 { return float64(v) / float64(n) / 1e3 }
	fmt.Fprintf(w, "trace %s: %d client spans (%d through the router, %d without exactly one first-hop span); mean client %.1f us = replica handlers %.1f us + router self %.1f us + unattributed %.1f us (client stack, loopback TCP and HTTP framing outside the handlers)\n",
		label, st.clients, st.viaRouter, st.unlinked, f(st.clientSum), f(st.replicaSum), f(st.routerSum), f(st.wireSum))
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
