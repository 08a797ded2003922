package main

import "testing"

func TestUnionLengthNestedAndOverlapping(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi int64
		iv     [][2]int64
		want   int64
	}{
		{"empty", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {30, 45}}, 25},
		{"nested", 0, 100, [][2]int64{{10, 60}, {20, 30}, {40, 50}}, 50},
		{"overlapping", 0, 100, [][2]int64{{10, 40}, {30, 70}, {65, 80}}, 70},
		{"unsorted", 0, 100, [][2]int64{{65, 80}, {10, 40}, {30, 70}}, 70},
		{"clipped", 20, 50, [][2]int64{{0, 30}, {45, 90}}, 15},
		{"outside", 20, 50, [][2]int64{{0, 10}, {60, 90}}, 0},
		{"identical", 0, 100, [][2]int64{{10, 20}, {10, 20}}, 10},
	}
	for _, c := range cases {
		if got := unionLength(c.lo, c.hi, c.iv); got != c.want {
			t.Errorf("%s: unionLength = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 150}, // overlaps the next child
		{Start: 140, End: 160},
		{Start: 120, End: 130}, // nested in the first
	}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("selfTime = %d, want 50 (100 minus the union 110..160)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// TestAnalyseLinksByContainment builds the spans of two sequential
// requests, one through the router scattering to two replicas and one
// straight to a replica, plus a health probe, and checks the per-layer
// split.
func TestAnalyseLinksByContainment(t *testing.T) {
	spans := []span{
		{Name: "client", Path: "/batch", Start: 0, End: 1000, Trace: 0, Parent: -1, Pairs: 10},
		{Name: "router", Path: "/batch", Start: 100, End: 900, Trace: -1, Parent: -1},
		{Name: "replica0", Path: "/batch", Start: 200, End: 500, Trace: -1, Parent: -1},
		{Name: "replica1", Path: "/batch", Start: 300, End: 700, Trace: -1, Parent: -1},
		{Name: "replica2", Path: "/healthz", Start: 400, End: 410, Trace: -1, Parent: -1},
		{Name: "client", Path: "/paths", Start: 2000, End: 2500, Trace: 1, Parent: -1, Probe: true},
		{Name: "replica0", Path: "/paths", Start: 2100, End: 2400, Trace: -1, Parent: -1},
	}
	own, probe := analyse(spans)
	if own.clients != 1 || own.unlinked != 0 || own.viaRouter != 1 {
		t.Fatalf("own: clients %d unlinked %d via router %d", own.clients, own.unlinked, own.viaRouter)
	}
	// Router 800 minus the replicas' union 200..700.
	if len(own.routerSelf) != 1 || own.routerSelf[0] != 300 {
		t.Errorf("router self = %v, want [300]", own.routerSelf)
	}
	if len(own.wire) != 1 || own.wire[0] != 200 {
		t.Errorf("wire = %v, want [200]", own.wire)
	}
	if own.batchNs != 700 || own.batchPairs != 10 {
		t.Errorf("batch time %d over %d pairs, want 700 over 10", own.batchNs, own.batchPairs)
	}
	if own.clientSum != own.wireSum+own.routerSum+own.replicaSum {
		t.Errorf("client %d != wire %d + router %d + replicas %d", own.clientSum, own.wireSum, own.routerSum, own.replicaSum)
	}
	if spans[4].Trace != -1 {
		t.Errorf("health probe linked to trace %d", spans[4].Trace)
	}
	if probe.clients != 1 || len(probe.wire) != 1 || probe.wire[0] != 200 || len(probe.server["/paths"]) != 1 {
		t.Errorf("probe: clients %d wire %v paths %v", probe.clients, probe.wire, probe.server["/paths"])
	}
}
