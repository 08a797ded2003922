package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/butterfly"
)

// Batch routing kernel.
//
// The hbd /batch endpoint amortises per-request serving overhead over
// thousands of (src, dst) pairs, which only pays off if the per-pair
// cost underneath is the bare label arithmetic. RouteBatch is that
// kernel: it answers every pair of a request into caller-provided
// reusable column storage — a status column, a distance column, and for
// routes a single contiguous node arena addressed by a prefix-summed
// offset column — with zero steady-state allocations per pair.
//
// The route pass exploits a Theorem 3 invariant: the route emitted by
// AppendRoute is optimal, so its node count is exactly Distance(u,v)+1.
// That turns batch routing into two embarrassingly parallel passes with
// no synchronisation on the arena: pass one plans every pair once (its
// distance and its butterfly walk), a serial prefix sum sizes the
// arena and assigns every pair a disjoint segment, and pass two
// expands each stored walk into its own full-capacity segment. The
// offset column doubles as the columnar wire format the /batch codecs
// emit, so the kernel output is encoded without copying.

// Per-pair status codes. They are wire-format values (the /batch
// protocol echoes them verbatim), so they are stable small integers.
const (
	// BatchOK marks a pair that was answered.
	BatchOK uint8 = 0
	// BatchBadNode marks a pair with an out-of-range endpoint.
	BatchBadNode uint8 = 1
	// BatchFailed marks a pair the operation could not answer (a faulty
	// or disconnected endpoint under faults, equal endpoints for
	// disjoint paths). RouteBatch itself never emits it; the composed
	// operations in hbserve do.
	BatchFailed uint8 = 2
)

// BatchOp selects what RouteBatch computes per pair.
type BatchOp uint8

const (
	// BatchDist fills only the status and distance columns.
	BatchDist BatchOp = iota
	// BatchRoute additionally materialises every route into the arena.
	BatchRoute
)

// BatchScratch is the reusable column storage of one batch call. All
// slices grow amortised and are overwritten in place on reuse, so a
// pooled scratch reaches zero allocations per pair in steady state.
// After RouteBatch returns, pair i's answer is Status[i], Dist[i] and —
// for BatchRoute with Status[i] == BatchOK — the node segment
// Nodes[Off[i]:Off[i+1]].
type BatchScratch struct {
	Status []uint8
	Dist   []int32
	Off    []int32 // len(pairs)+1 after BatchRoute; prefix sums into Nodes
	Nodes  []Node  // route arena; segments are disjoint per pair

	walks []butterfly.Walk // per pair, planned by the first pass
}

// batchChunkMin is the smallest per-worker slice of a batch worth a
// goroutine: below it the spawn overhead exceeds the label arithmetic.
const batchChunkMin = 256

// batchWorkers clamps a requested worker count to the batch size.
func batchWorkers(workers, pairs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if limit := pairs / batchChunkMin; workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RouteBatch answers op for every pair (src[i], dst[i]) into bs,
// reusing its storage. workers bounds the fan-out (<= 0 means
// GOMAXPROCS); batches too small to shard run on the calling goroutine
// with no allocation at all. Invalid endpoints get BatchBadNode with
// Dist -1 and an empty route segment; they never abort the batch.
func RouteBatch(hb *HyperButterfly, op BatchOp, src, dst []Node, workers int, bs *BatchScratch) error {
	if len(src) != len(dst) {
		return fmt.Errorf("core: batch columns disagree: %d src, %d dst", len(src), len(dst))
	}
	pairs := len(src)
	// The columns grow with append's headroom: batch sizes and node
	// totals vary from call to call, and an exact-size column would be
	// re-made whenever a batch beats the last one.
	bs.Status = slices.Grow(bs.Status[:0], pairs)[:pairs]
	bs.Dist = slices.Grow(bs.Dist[:0], pairs)[:pairs]
	bs.walks = slices.Grow(bs.walks[:0], pairs)[:pairs]
	workers = batchWorkers(workers, pairs)

	if workers == 1 {
		batchPlanRange(hb, src, dst, bs, 0, pairs)
	} else {
		shardRange(workers, pairs, func(lo, hi int) {
			batchPlanRange(hb, src, dst, bs, lo, hi)
		})
	}
	if op == BatchDist {
		bs.Off = bs.Off[:0]
		bs.Nodes = bs.Nodes[:0]
		return nil
	}

	// Prefix-sum the route lengths (Distance+1 nodes per answered pair)
	// into disjoint arena segments.
	bs.Off = slices.Grow(bs.Off[:0], pairs+1)[:pairs+1]
	total := int32(0)
	bs.Off[0] = 0
	for i := 0; i < pairs; i++ {
		if bs.Status[i] == BatchOK {
			total += bs.Dist[i] + 1
		}
		bs.Off[i+1] = total
	}
	bs.Nodes = slices.Grow(bs.Nodes[:0], int(total))[:total]

	if workers == 1 {
		batchRouteRange(hb, src, dst, bs, 0, pairs)
	} else {
		shardRange(workers, pairs, func(lo, hi int) {
			batchRouteRange(hb, src, dst, bs, lo, hi)
		})
	}
	return nil
}

// batchPlanRange fills the status, distance and walk columns for
// [lo, hi).
func batchPlanRange(hb *HyperButterfly, src, dst []Node, bs *BatchScratch, lo, hi int) {
	for i := lo; i < hi; i++ {
		u, v := src[i], dst[i]
		if !hb.ValidNode(u) || !hb.ValidNode(v) {
			bs.Status[i] = BatchBadNode
			bs.Dist[i] = -1
			continue
		}
		bs.Status[i] = BatchOK
		d, walk := hb.planRoute(u, v)
		bs.Dist[i], bs.walks[i] = int32(d), walk
	}
}

// batchRouteRange appends each answered route of [lo, hi) into its
// pre-sized arena segment, expanding the walks the first pass planned.
// The three-index slice pins the segment capacity, so the route is
// written in place and any length disagreement with the distance
// column is a core invariant violation, not a quiet overrun into the
// neighbouring pair.
func batchRouteRange(hb *HyperButterfly, src, dst []Node, bs *BatchScratch, lo, hi int) {
	for i := lo; i < hi; i++ {
		if bs.Status[i] != BatchOK {
			continue
		}
		start, end := bs.Off[i], bs.Off[i+1]
		out := hb.appendPlanned(src[i], dst[i], bs.walks[i], bs.Nodes[start:start:end])
		if int32(len(out)) != end-start {
			panic(fmt.Sprintf("core: route %d->%d has %d nodes, distance column promised %d",
				src[i], dst[i], len(out), end-start))
		}
	}
}

// shardRange runs f over contiguous chunks of [0, n), the last on the
// calling goroutine and each other on its own, and waits for all of
// them, also when the caller's chunk panics.
func shardRange(workers, n int, f func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	defer wg.Wait()
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, lo+chunk)
	}
	f(lo, n)
}
