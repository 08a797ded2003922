package hbserve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Health-check defaults. The probe cadence is fast enough that a killed
// replica stops receiving first-attempt traffic within ~1s, and the
// hysteresis widths keep one dropped probe (or one slow restart) from
// flapping the membership.
const (
	DefaultProbeInterval = 250 * time.Millisecond
	DefaultProbeTimeout  = 500 * time.Millisecond
	DefaultEjectAfter    = 2 // consecutive probe failures before ejection
	DefaultReadmitAfter  = 2 // consecutive probe successes before re-admission
)

// replicaState tracks one peer's health. healthy is read lock-free on
// the forwarding hot path; the hysteresis counters are only touched
// under mu by the probe loop and by forward-failure reports.
type replicaState struct {
	conns   *replicaConns
	healthy atomic.Bool

	mu    sync.Mutex
	fails int // consecutive observed failures while healthy
	oks   int // consecutive probe successes while ejected

	ejections    atomic.Uint64
	readmissions atomic.Uint64
	forwarded    atomic.Uint64 // requests answered via this replica
}

// healthChecker actively probes every replica's /healthz on a fixed
// cadence with a per-probe deadline, ejecting a replica after
// EjectAfter consecutive failures and re-admitting it after
// ReadmitAfter consecutive successes. Forward-path transport errors
// feed the same failure counter (ReportFailure), so a killed replica is
// ejected by the traffic hitting it rather than waiting out a probe
// cycle.
type healthChecker struct {
	interval     time.Duration
	timeout      time.Duration
	ejectAfter   int
	readmitAfter int

	replicas []*replicaState

	start sync.Once
	stop  chan struct{}
	done  chan struct{}
}

func newHealthChecker(conns []*replicaConns, interval, timeout time.Duration, ejectAfter, readmitAfter int) *healthChecker {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	if ejectAfter <= 0 {
		ejectAfter = DefaultEjectAfter
	}
	if readmitAfter <= 0 {
		readmitAfter = DefaultReadmitAfter
	}
	h := &healthChecker{
		interval:     interval,
		timeout:      timeout,
		ejectAfter:   ejectAfter,
		readmitAfter: readmitAfter,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for _, c := range conns {
		r := &replicaState{conns: c}
		r.healthy.Store(true) // optimistic start; the forward path reports real failures
		h.replicas = append(h.replicas, r)
	}
	return h
}

// Start launches the probe loop; Stop shuts it down and waits for it.
// A checker that was never started stops at once, and stays stopped.
func (h *healthChecker) Start() { h.start.Do(func() { go h.probeLoop() }) }

func (h *healthChecker) Stop() {
	h.start.Do(func() { close(h.done) })
	close(h.stop)
	<-h.done
}

func (h *healthChecker) probeLoop() {
	defer close(h.done)
	tick := time.NewTicker(h.interval)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			h.probeAll()
		}
	}
}

// probeAll probes every replica concurrently so one hung peer cannot
// delay the others' verdicts past the shared deadline.
func (h *healthChecker) probeAll() {
	var wg sync.WaitGroup
	for i := range h.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if h.probe(h.replicas[i].conns) {
				h.reportSuccess(i)
			} else {
				h.ReportFailure(i)
			}
		}(i)
	}
	wg.Wait()
}

// probe GETs the replica's /healthz over the forwarding pool, so a
// probe also finds out when pooled connections went stale; the whole
// probe, dial included, runs under the probe timeout.
func (h *healthChecker) probe(c *replicaConns) bool {
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()
	var body bytes.Buffer
	resp, err := c.roundTrip(ctx, http.MethodGet, "/healthz", "", nil, h.timeout, &body)
	return err == nil && resp.StatusCode/100 == 2
}

// Healthy reports whether replica i is currently admitted.
func (h *healthChecker) Healthy(i int) bool { return h.replicas[i].healthy.Load() }

// ReportFailure records one failed probe or forward attempt against
// replica i, ejecting it once the consecutive-failure hysteresis is
// crossed.
func (h *healthChecker) ReportFailure(i int) {
	r := h.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.oks = 0
	if !r.healthy.Load() {
		return
	}
	r.fails++
	if r.fails >= h.ejectAfter {
		r.healthy.Store(false)
		r.fails = 0
		r.ejections.Add(1)
	}
}

// reportSuccess records one successful probe, re-admitting an ejected
// replica once the consecutive-success hysteresis is crossed. Forward
// successes do not feed it: only the active probe — which sees the
// replica even when the ring steers no traffic at it — can re-admit.
func (h *healthChecker) reportSuccess(i int) {
	r := h.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	if r.healthy.Load() {
		return
	}
	r.oks++
	if r.oks >= h.readmitAfter {
		r.healthy.Store(true)
		r.oks = 0
		r.readmissions.Add(1)
	}
}

// HealthyCount returns how many replicas are currently admitted.
func (h *healthChecker) HealthyCount() int {
	n := 0
	for _, r := range h.replicas {
		if r.healthy.Load() {
			n++
		}
	}
	return n
}
