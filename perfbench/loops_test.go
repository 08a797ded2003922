package main

import (
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue drives the open loop against a stub that
// stalls once. Jobs due during the stall wait for the one executor, and
// that wait must show in their latency: timing from the send instead of
// the due time would hide it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		rate  = 200.0 // a job every 5 ms
		stall = 100 * time.Millisecond
	)
	next := 0
	gen := func() int { next++; return next - 1 }
	exec := func(_ int, k int) bool {
		if k == 10 {
			time.Sleep(stall)
		}
		return k != 30 // job 30 fails
	}
	res := openLoop(rate, 250*time.Millisecond, 1, gen, exec)
	if len(res.lat) != 50 {
		t.Fatalf("%d jobs, want 50", len(res.lat))
	}
	if res.lat[10] < stall {
		t.Errorf("stalled job latency %v, want >= %v", res.lat[10], stall)
	}
	// Job 11 was due 5 ms after job 10 and could start only when the
	// stall ended, so it waited about 95 ms.
	if res.lat[11] < stall-10*time.Millisecond {
		t.Errorf("job after the stall has latency %v, want about %v", res.lat[11], stall-5*time.Millisecond)
	}
	if res.lat[30] != failedLatency {
		t.Errorf("failed job latency %v, want failedLatency", res.lat[30])
	}
	if res.lat[45] > stall/2 {
		t.Errorf("job 45 latency %v: the backlog should have drained", res.lat[45])
	}
	// The generator keeps its schedule while the executor is stalled.
	for k := 11; k < 30; k++ {
		if res.lag[k] > 20*time.Millisecond {
			t.Errorf("generator lag for job %d is %v", k, res.lag[k])
		}
	}
}

func TestSlicedLatencyIgnoresOneBadSlice(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Millisecond
		if i < 100 {
			lat[i] = time.Second // part of one slice hit by a stall
		}
	}
	v, per := slicedLatency(lat, 0.99)
	if per != 200 || v != time.Millisecond {
		t.Errorf("slicedLatency = %v over slices of %d, want 1ms over slices of 200", v, per)
	}
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{5, 1, 4, 2, 3}
	if got := percentile(d, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(d, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}
