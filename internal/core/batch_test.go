package core_test

import (
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

// TestRouteBatchParallelMatchesSerial pins the sharded fan-out to the
// serial answer: identical columns, byte for byte, at worker counts
// that split the batch unevenly.
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

// TestRouteBatchParallelAllocsBounded keeps the sharded path honest:
// its allocations are per-batch goroutine bookkeeping, not per-pair, so
// they must stay a small constant regardless of batch size.
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
		name    string
		top     *core.HyperButterfly
		workers int
		random  bool
	}{
		{"serial", core.MustNew(3, 3), 1, false},
		{"parallel", core.MustNew(3, 3), 0, false},
		{"hb38-random/serial", core.MustNew(3, 8), 1, true},
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
				if err := core.RouteBatch(bc.top, core.BatchRoute, src, dst, bc.workers, &bs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(pairs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
	}
}
