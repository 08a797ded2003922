package core

import (
	"fmt"
	"slices"
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
// Each pair is answered in one step of one sequential sweep: writeRoute
// decodes both endpoints once, reads the butterfly plan once and writes
// the route by index into the arena right after the previous pair's,
// and the sweep records the distance and the next offset. No pair is
// revisited, so nothing is stored between a plan and its expansion. A
// shortest route has at most diameter+1 nodes (Theorem 3), so the arena
// is sized k·(diameter+1) slots for k pairs before the sweep starts and
// never grows inside it. The sweep runs on the calling goroutine: a
// server answers many batches at once, so its CPUs are already busy
// with other requests. The offset column doubles as the columnar wire format the /batch
// codecs emit, so the kernel output is encoded without copying.

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
}

// RouteBatch answers op for every pair (src[i], dst[i]) into bs,
// reusing its storage, in one sweep on the calling goroutine that
// allocates nothing once bs has grown. workers is ignored; it is kept
// only so existing callers compile. Invalid endpoints get BatchBadNode
// with Dist -1 and an empty route segment; they never abort the batch.
func RouteBatch(hb *HyperButterfly, op BatchOp, src, dst []Node, workers int, bs *BatchScratch) error {
	if len(src) != len(dst) {
		return fmt.Errorf("core: batch columns disagree: %d src, %d dst", len(src), len(dst))
	}
	pairs := len(src)
	// The columns grow with append's headroom: batch sizes vary from
	// call to call, and an exact-size column would be re-made whenever a
	// batch beats the last one.
	bs.Status = slices.Grow(bs.Status[:0], pairs)[:pairs]
	bs.Dist = slices.Grow(bs.Dist[:0], pairs)[:pairs]
	bs.Off, bs.Nodes = bs.Off[:0], bs.Nodes[:0]
	span := 0
	if op == BatchRoute {
		span = hb.span
		bs.Off = slices.Grow(bs.Off, pairs+1)[:pairs+1]
		bs.Off[0] = 0
		bs.Nodes = slices.Grow(bs.Nodes, pairs*span)[:pairs*span]
	}
	bs.Nodes = bs.Nodes[:batchSweep(hb, src, dst, bs, span)]
	return nil
}

// batchSweep answers every pair in order. With span 0 it fills the
// status and distance columns only. Otherwise it also writes each
// answered route into the arena right after the previous pair's, sets
// Off[i+1] for every pair, and returns the end of what it wrote.
func batchSweep(hb *HyperButterfly, src, dst []Node, bs *BatchScratch, span int) int {
	order := hb.Order()
	at := 0
	for i := range src {
		u, v := src[i], dst[i]
		if uint(u) >= uint(order) || uint(v) >= uint(order) {
			bs.Status[i], bs.Dist[i] = BatchBadNode, -1
		} else if span == 0 {
			bs.Status[i], bs.Dist[i] = BatchOK, int32(hb.Distance(u, v))
		} else {
			d := hb.writeRoute(u, v, bs.Nodes[at:])
			bs.Status[i], bs.Dist[i] = BatchOK, int32(d)
			at += d + 1
		}
		if span != 0 {
			bs.Off[i+1] = int32(at)
		}
	}
	return at
}
