package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// testPairs builds a deterministic pair mix covering self pairs, long
// pairs and out-of-range endpoints.
func testPairs(order, count int) (src, dst []core.Node) {
	for i := 0; i < count; i++ {
		u := (i * 2654435761) % order
		v := (i*40503 + 13) % order
		switch i % 17 {
		case 3:
			v = u // self pair
		case 7:
			v = order + i // out of range
		case 11:
			u = -1 - i // negative
		}
		src = append(src, u)
		dst = append(dst, v)
	}
	return src, dst
}

// TestRouteBatchMatchesSingle: every column of a batch answer equals
// the one-pair Distance and Route of the *HyperButterfly (the dense
// tier), with bad endpoints answered as BatchBadNode.
func TestRouteBatchMatchesSingle(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		top := core.MustNew(2, 3)
		src, dst := testPairs(top.Order(), 500)
		var bs core.BatchScratch
		if err := core.RouteBatch(top, core.BatchRoute, src, dst, 0, &bs); err != nil {
			t.Fatal(err)
		}
		if len(bs.Status) != len(src) || len(bs.Off) != len(src)+1 {
			t.Fatalf("column lengths: status %d off %d, want %d/%d", len(bs.Status), len(bs.Off), len(src), len(src)+1)
		}
		for i := range src {
			u, v := src[i], dst[i]
			if !top.ValidNode(u) || !top.ValidNode(v) {
				if bs.Status[i] != core.BatchBadNode || bs.Dist[i] != -1 || bs.Off[i] != bs.Off[i+1] {
					t.Fatalf("pair %d (%d,%d): bad endpoints got status %d dist %d seg %d", i, u, v, bs.Status[i], bs.Dist[i], bs.Off[i+1]-bs.Off[i])
				}
				continue
			}
			if bs.Status[i] != core.BatchOK {
				t.Fatalf("pair %d (%d,%d): status %d", i, u, v, bs.Status[i])
			}
			if want := top.Distance(u, v); int(bs.Dist[i]) != want {
				t.Fatalf("pair %d: dist %d, want %d", i, bs.Dist[i], want)
			}
			seg := bs.Nodes[bs.Off[i]:bs.Off[i+1]]
			want := top.Route(u, v)
			if len(seg) != len(want) {
				t.Fatalf("pair %d: route %v, want %v", i, seg, want)
			}
			for j := range want {
				if seg[j] != want[j] {
					t.Fatalf("pair %d: route %v, want %v", i, seg, want)
				}
			}
		}
	})
}

// oracleRoute builds the u-v route move by move: hypercube dimensions
// lowest first, then the butterfly generators applied one at a time.
// butterfly's TestRoutesMatchOracle pins RouteGenerators to the scan
// planner's Apply-based expansion on every pair of B_3..B_7.
func oracleRoute(hb *core.HyperButterfly, u, v core.Node) []core.Node {
	hu, bu := hb.Decode(u)
	hv, bv := hb.Decode(v)
	path := []core.Node{u}
	cur := u
	for d := 0; d < hb.M(); d++ {
		if (hu^hv)>>d&1 == 1 {
			cur = hb.Apply(core.Move{Cube: true, Index: d}, cur)
			path = append(path, cur)
		}
	}
	for _, g := range hb.Butterfly().RouteGenerators(bu, bv) {
		cur = hb.Apply(core.Move{Index: g}, cur)
		path = append(path, cur)
	}
	return path
}

// TestRouteBatchMatchesOracle: on every pair of HB(2,3), HB(2,4) and
// HB(3,4), the batch kernel's routes (planned once, then expanded) equal
// the oracle's.
func TestRouteBatchMatchesOracle(t *testing.T) {
	for _, dims := range [][2]int{{2, 3}, {2, 4}, {3, 4}} {
		hb := core.MustNew(dims[0], dims[1])
		order := hb.Order()
		src := make([]core.Node, 0, order*order)
		dst := make([]core.Node, 0, order*order)
		for u := 0; u < order; u++ {
			for v := 0; v < order; v++ {
				src, dst = append(src, u), append(dst, v)
			}
		}
		var bs core.BatchScratch
		if err := core.RouteBatch(hb, core.BatchRoute, src, dst, 0, &bs); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			want := oracleRoute(hb, src[i], dst[i])
			if got := bs.Nodes[bs.Off[i]:bs.Off[i+1]]; !slices.Equal(got, want) {
				t.Fatalf("HB(%d,%d): pair %d->%d route %v, oracle %v", dims[0], dims[1], src[i], dst[i], got, want)
			}
			if int(bs.Dist[i]) != len(want)-1 {
				t.Fatalf("HB(%d,%d): pair %d->%d dist %d, oracle route has %d hops", dims[0], dims[1], src[i], dst[i], bs.Dist[i], len(want)-1)
			}
		}
	}
}

// checkSweep runs one route batch and checks every pair against the one-pair Distance and Route: an invalid pair
// is BatchBadNode with Dist -1 and an empty segment; a valid one is
// BatchOK, and its segment is Route(u, v), a walk of adjacent nodes
// from u to v of Dist hops.
func checkSweep(t *testing.T, hb *core.HyperButterfly, src, dst []core.Node) {
	t.Helper()
	var bs core.BatchScratch
	if err := core.RouteBatch(hb, core.BatchRoute, src, dst, 1, &bs); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("HB(%d,%d)", hb.M(), hb.N())
	if len(bs.Status) != len(src) || len(bs.Dist) != len(src) || len(bs.Off) != len(src)+1 || bs.Off[0] != 0 {
		t.Fatalf("%s: columns status %d dist %d off %d for %d pairs", name, len(bs.Status), len(bs.Dist), len(bs.Off), len(src))
	}
	if int(bs.Off[len(src)]) != len(bs.Nodes) {
		t.Fatalf("%s: offsets end at %d, arena holds %d nodes", name, bs.Off[len(src)], len(bs.Nodes))
	}
	var nbrs []core.Node
	for i := range src {
		u, v := src[i], dst[i]
		seg := bs.Nodes[bs.Off[i]:bs.Off[i+1]]
		if !hb.ValidNode(u) || !hb.ValidNode(v) {
			if bs.Status[i] != core.BatchBadNode || bs.Dist[i] != -1 || len(seg) != 0 {
				t.Fatalf("%s: pair %d (%d,%d) got status %d dist %d segment %v", name, i, u, v, bs.Status[i], bs.Dist[i], seg)
			}
			continue
		}
		if bs.Status[i] != core.BatchOK || int(bs.Dist[i]) != hb.Distance(u, v) {
			t.Fatalf("%s: pair %d (%d,%d) got status %d dist %d, want distance %d", name, i, u, v, bs.Status[i], bs.Dist[i], hb.Distance(u, v))
		}
		if want := hb.Route(u, v); !slices.Equal(seg, want) {
			t.Fatalf("%s: pair %d (%d,%d) route %v, Route %v", name, i, u, v, seg, want)
		}
		if len(seg) != int(bs.Dist[i])+1 || seg[0] != u || seg[len(seg)-1] != v {
			t.Fatalf("%s: pair %d (%d,%d) route %v is not %d hops from u to v", name, i, u, v, seg, bs.Dist[i])
		}
		for k := 1; k < len(seg); k++ {
			if nbrs = hb.AppendNeighbors(seg[k-1], nbrs[:0]); !slices.Contains(nbrs, seg[k]) {
				t.Fatalf("%s: pair %d (%d,%d) route %v: hop %d->%d is not an edge", name, i, u, v, seg, seg[k-1], seg[k])
			}
		}
	}
}

// TestRouteBatchSweepExhaustive: on every ordered pair of HB(1,3),
// HB(2,3), HB(1,4) and HB(2,5), with out-of-range ids mixed in, the
// one-pass sweep answers each pair as the one-pair Distance and Route
// do.
func TestRouteBatchSweepExhaustive(t *testing.T) {
	for _, dims := range [][2]int{{1, 3}, {2, 3}, {1, 4}, {2, 5}} {
		hb := core.MustNew(dims[0], dims[1])
		order := hb.Order()
		var src, dst []core.Node
		for u := 0; u < order; u++ {
			for v := 0; v < order; v++ {
				src, dst = append(src, u), append(dst, v)
				if (u*order+v)%97 == 0 {
					src, dst = append(src, order+u, -1-u), append(dst, v, order)
				}
			}
		}
		checkSweep(t, hb, src, dst)
	}
}

// TestRouteBatchSweepRandom: the sweep matches the one-pair answers on
// random pairs of larger instances: HB(3,8) as served, HB(1,12) at the
// largest plan table, HB(1,13), whose butterfly plans run planWalk per
// call, and HB(10,10).
func TestRouteBatchSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{3, 8}, {1, 12}, {1, 13}, {10, 10}} {
		hb := core.MustNew(dims[0], dims[1])
		src, dst := make([]core.Node, 2000), make([]core.Node, 2000)
		for i := range src {
			src[i], dst[i] = rng.Intn(hb.Order()), rng.Intn(hb.Order())
		}
		src[17], dst[1001] = hb.Order(), -5
		checkSweep(t, hb, src, dst)
	}
}

// TestRouteBatchArenaWarm: warm 1024-pair HB(3,8) route batches of
// fresh random pairs never re-make a column. The arena is sized by the
// diameter bound, which depends on the pair count alone.
func TestRouteBatchArenaWarm(t *testing.T) {
	hb := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(5))
	src, dst := make([]core.Node, 1024), make([]core.Node, 1024)
	var bs core.BatchScratch
	caps := func() [4]int { return [4]int{cap(bs.Status), cap(bs.Dist), cap(bs.Off), cap(bs.Nodes)} }
	remade := 0
	for batch := 0; batch < 200; batch++ {
		for i := range src {
			src[i], dst[i] = rng.Intn(hb.Order()), rng.Intn(hb.Order())
		}
		before := caps()
		if err := core.RouteBatch(hb, core.BatchRoute, src, dst, 1, &bs); err != nil {
			t.Fatal(err)
		}
		if batch > 0 && caps() != before {
			remade++
		}
	}
	if remade != 0 {
		t.Fatalf("columns re-made in %d of 199 warm batches, want 0", remade)
	}
}

func TestRouteBatchDistOnly(t *testing.T) {
	top := core.MustNew(2, 3)
	src, dst := testPairs(top.Order(), 200)
	var bs core.BatchScratch
	if err := core.RouteBatch(top, core.BatchDist, src, dst, 0, &bs); err != nil {
		t.Fatal(err)
	}
	if len(bs.Off) != 0 || len(bs.Nodes) != 0 {
		t.Fatalf("dist-only batch left route columns: off %d nodes %d", len(bs.Off), len(bs.Nodes))
	}
	for i := range src {
		if bs.Status[i] != core.BatchOK {
			continue
		}
		if want := top.Distance(src[i], dst[i]); int(bs.Dist[i]) != want {
			t.Fatalf("pair %d: dist %d, want %d", i, bs.Dist[i], want)
		}
	}
}

// TestRouteBatchParallelMatchesSerial pins RouteBatch's ignored worker
// count: any value gives the one-worker columns, byte for byte.
func TestRouteBatchParallelMatchesSerial(t *testing.T) {
	top := core.MustNew(3, 3)
	src, dst := testPairs(top.Order(), 2048)
	var serial core.BatchScratch
	if err := core.RouteBatch(top, core.BatchRoute, src, dst, 1, &serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		var par core.BatchScratch
		if err := core.RouteBatch(top, core.BatchRoute, src, dst, workers, &par); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if par.Status[i] != serial.Status[i] || par.Dist[i] != serial.Dist[i] || par.Off[i+1] != serial.Off[i+1] {
				t.Fatalf("workers=%d pair %d: (%d,%d,%d) vs serial (%d,%d,%d)", workers, i,
					par.Status[i], par.Dist[i], par.Off[i+1], serial.Status[i], serial.Dist[i], serial.Off[i+1])
			}
		}
		for i := range serial.Nodes {
			if par.Nodes[i] != serial.Nodes[i] {
				t.Fatalf("workers=%d: arena diverges at %d", workers, i)
			}
		}
	}
}

func TestRouteBatchColumnMismatch(t *testing.T) {
	top := core.MustNew(2, 3)
	var bs core.BatchScratch
	if err := core.RouteBatch(top, core.BatchRoute, []core.Node{1, 2}, []core.Node{3}, 0, &bs); err == nil {
		t.Fatal("mismatched columns accepted")
	}
}

// TestRouteBatchSteadyStateAllocs is the acceptance gate for the batch
// kernel: with a warmed scratch, a whole serial batch — status, dist,
// prefix sum and every route — allocates nothing, so the per-pair
// allocation count is exactly zero.
func TestRouteBatchSteadyStateAllocs(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		top := core.MustNew(3, 3)
		order := top.Order()
		const pairs = 1024
		src := make([]core.Node, pairs)
		dst := make([]core.Node, pairs)
		var bs core.BatchScratch
		round := 0
		fill := func() {
			for i := range src {
				src[i] = (i*2654435761 + round) % order
				dst[i] = (i*40503 + 7*round + 13) % order
			}
			round++
		}
		fill()
		if err := core.RouteBatch(top, core.BatchRoute, src, dst, 1, &bs); err != nil {
			t.Fatal(err) // warm the scratch
		}
		if got := testing.AllocsPerRun(50, func() {
			fill()
			if err := core.RouteBatch(top, core.BatchRoute, src, dst, 1, &bs); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%v allocs per %d-pair batch, want 0", got, pairs)
		}
	})

	// Batch sizes, and with them the arena's node total, vary from call
	// to call: alternating HB(3,8) batches of 300, 341 and 380 fresh
	// random pairs allocate nothing after warm-up, because the columns
	// grow with headroom rather than to the largest batch so far.
	t.Run("varying", func(t *testing.T) {
		top := core.MustNew(3, 8)
		rng := rand.New(rand.NewSource(1))
		sizes := []int{300, 341, 380}
		batches := make([][2][]core.Node, 3*len(sizes)+60)
		for k := range batches {
			pairs := sizes[k%len(sizes)]
			src, dst := make([]core.Node, pairs), make([]core.Node, pairs)
			for i := range src {
				src[i], dst[i] = rng.Intn(top.Order()), rng.Intn(top.Order())
			}
			batches[k] = [2][]core.Node{src, dst}
		}
		var bs core.BatchScratch
		k := 0
		run := func() {
			if err := core.RouteBatch(top, core.BatchRoute, batches[k][0], batches[k][1], 1, &bs); err != nil {
				t.Fatal(err)
			}
			k++
		}
		for k < 3*len(sizes) {
			run() // warm-up
		}
		if got := testing.AllocsPerRun(len(batches)-k-1, run); got != 0 {
			t.Errorf("%v allocs per batch after warm-up, want 0", got)
		}
	})
}

// TestBatchScratchGrowsWithHeadroom: when batches grow a little on
// each of many calls, as sub-batch sizes drift upward, the scratch's
// columns are re-made O(log) times, not once per new largest batch.
func TestBatchScratchGrowsWithHeadroom(t *testing.T) {
	top := core.MustNew(3, 8)
	rng := rand.New(rand.NewSource(3))
	src, dst := make([]core.Node, 8192), make([]core.Node, 8192)
	for i := range src {
		src[i], dst[i] = rng.Intn(top.Order()), rng.Intn(top.Order())
	}
	var bs core.BatchScratch
	remade := 0
	for n := 4096; n <= 8192; n += 41 {
		before := cap(bs.Status)
		if err := core.RouteBatch(top, core.BatchDist, src[:n], dst[:n], 1, &bs); err != nil {
			t.Fatal(err)
		}
		if cap(bs.Status) != before {
			remade++
		}
	}
	if remade > 5 {
		t.Fatalf("status column re-made %d times growing 4096 -> 8192 pairs in steps of 41, want <= 5", remade)
	}
}

// TestRouteBatchParallelAllocsBounded: a worker count above 1 adds no
// per-pair allocation; RouteBatch ignores it and sweeps serially.
func TestRouteBatchParallelAllocsBounded(t *testing.T) {
	top := core.MustNew(3, 3)
	order := top.Order()
	const pairs = 4096
	src := make([]core.Node, pairs)
	dst := make([]core.Node, pairs)
	for i := range src {
		src[i] = (i * 2654435761) % order
		dst[i] = (i*40503 + 13) % order
	}
	var bs core.BatchScratch
	if err := core.RouteBatch(top, core.BatchRoute, src, dst, 4, &bs); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if err := core.RouteBatch(top, core.BatchRoute, src, dst, 4, &bs); err != nil {
			t.Fatal(err)
		}
	})
	if perPair := got / pairs; perPair > 0.05 {
		t.Errorf("parallel batch: %v allocs per batch (%v/pair), want O(workers) only", got, perPair)
	}
}

// BenchmarkRouteBatch times 1024-pair route batches. The HB(3,3) cases
// use an arithmetic pair pattern; the HB(3,8) case draws uniformly
// random pairs, the traffic perfbench's batch-router workload serves.
func BenchmarkRouteBatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		top    *core.HyperButterfly
		random bool
	}{
		{"serial", core.MustNew(3, 3), false},
		{"hb38-random/serial", core.MustNew(3, 8), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			order := bc.top.Order()
			const pairs = 1024
			src := make([]core.Node, pairs)
			dst := make([]core.Node, pairs)
			rng := rand.New(rand.NewSource(1))
			for i := range src {
				if bc.random {
					src[i], dst[i] = rng.Intn(order), rng.Intn(order)
				} else {
					src[i] = (i * 2654435761) % order
					dst[i] = (i*40503 + 13) % order
				}
			}
			var bs core.BatchScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.RouteBatch(bc.top, core.BatchRoute, src, dst, 1, &bs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(pairs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
	}
}
