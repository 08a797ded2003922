package graph

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
)

// 64-way bit-parallel all-sources BFS.
//
// An all-sources sweep (diameter, distance histogram, fault diameter)
// does not need the per-source distance arrays — only per-source
// eccentricities and per-level pair counts. Those aggregates admit a
// much cheaper propagation scheme than one BFS per source: give every
// vertex a 64-bit mask of which sources of the current batch have
// reached it, and advance one whole level for all 64 sources with a
// single pull pass — per vertex, OR the neighbours' frontier masks and
// strip the bits already seen. One pass costs O(|E|) word operations
// and serves 64 sources at once, so the per-source cost drops by
// roughly the word width compared to scalar BFS. Batches of 64 sources
// are independent, which is the unit the pooled driver hands to its
// workers.
//
// The same pass handles vertex faults: an excluded vertex is never
// seeded, keeps an all-zero frontier mask, and is skipped as a pull
// target, so no source's wave ever crosses it.

// BatchSweep is the aggregate result of a bit-parallel all-sources
// sweep.
type BatchSweep struct {
	// Ecc[v] is the eccentricity of v restricted to non-excluded
	// vertices; -1 for excluded vertices. Only meaningful when
	// Complete.
	Ecc []int32
	// Hist[k] counts ordered (source, vertex) pairs at distance k,
	// including the n zero-distance (v, v) pairs. Only meaningful when
	// Complete.
	Hist []int64
	// Complete reports whether every non-excluded source reached every
	// non-excluded vertex. When false, MissingSrc did not reach
	// MissingDst.
	Complete               bool
	MissingSrc, MissingDst int
}

// batchState is the reusable per-worker storage of one in-flight batch:
// per-vertex masks of sources seen so far, the current frontier and the
// next frontier.
type batchState struct {
	seen, cur, next []uint64
	hist            []int64
}

func newBatchState(n int) *batchState {
	return &batchState{
		seen: make([]uint64, n),
		cur:  make([]uint64, n),
		next: make([]uint64, n),
	}
}

// runBitBatch propagates the sources [base, base+k) (k <= 64) to every
// non-excluded vertex, accumulating eccentricities into ecc[base:] and
// per-level pair counts into st.hist. It returns ok=false with a
// witness pair as soon as propagation stalls before covering every
// survivor.
func runBitBatch(d *Dense, base, k int, excl *bitvec.Set, st *batchState, ecc []int32) (ok bool, missSrc, missDst int) {
	n := len(d.offsets) - 1
	seen, cur, next := st.seen[:n], st.cur[:n], st.next[:n]
	for i := range seen {
		seen[i], cur[i], next[i] = 0, 0, 0
	}

	// Seed the surviving sources of this batch; bit i stands for source
	// base+i. full is the mask the sweep must deliver to every survivor.
	var full uint64
	for i := 0; i < k; i++ {
		v := base + i
		if excl != nil && excl.Has(v) {
			continue
		}
		bit := uint64(1) << uint(i)
		full |= bit
		seen[v] = bit
		cur[v] = bit
	}
	if full == 0 {
		return true, 0, 0
	}
	st.hist = addHist(st.hist, 0, int64(bits.OnesCount64(full)))

	adj, offs := d.adj, d.offsets
	for level := int32(1); ; level++ {
		var levelUnion uint64
		var levelCount int
		for v := 0; v < n; v++ {
			sv := seen[v]
			if sv == full {
				next[v] = 0
				continue
			}
			if excl != nil && excl.Has(v) {
				continue
			}
			var m uint64
			end := offs[v+1]
			for j := offs[v]; j < end; j++ {
				m |= cur[adj[j]]
			}
			m &^= sv
			next[v] = m
			if m != 0 {
				seen[v] = sv | m
				levelUnion |= m
				levelCount += bits.OnesCount64(m)
			}
		}
		if levelUnion == 0 {
			break
		}
		// A source's eccentricity is the last level at which its wave
		// still gained a vertex.
		for mu := levelUnion; mu != 0; mu &= mu - 1 {
			ecc[base+bits.TrailingZeros64(mu)] = level
		}
		st.hist = addHist(st.hist, int(level), int64(levelCount))
		cur, next = next, cur
	}

	// Coverage check: every survivor must carry every seeded bit.
	for v := 0; v < n; v++ {
		if excl != nil && excl.Has(v) {
			continue
		}
		if missing := full &^ seen[v]; missing != 0 {
			return false, base + bits.TrailingZeros64(missing), v
		}
	}
	return true, 0, 0
}

// addHist grows h to cover level and adds c to it — one bounds
// adjustment per BFS level, never per vertex.
func addHist(h []int64, level int, c int64) []int64 {
	for len(h) <= level {
		h = append(h, 0)
	}
	h[level] += c
	return h
}

// AllSourcesBits runs the pooled bit-parallel all-sources sweep:
// batches of 64 sources are claimed by `workers` goroutines (default
// GOMAXPROCS when workers <= 0), each reusing one batchState, and the
// per-worker histograms are merged at the end. Excluded vertices
// (excluded may be nil) are treated as deleted. The sweep short-
// circuits as soon as any batch proves the surviving graph
// disconnected.
func (d *Dense) AllSourcesBits(excluded []bool, workers int) *BatchSweep {
	n := d.Order()
	res := &BatchSweep{Ecc: make([]int32, n), Complete: true}
	if n == 0 {
		res.Hist = []int64{}
		return res
	}
	var excl *bitvec.Set
	if excluded != nil {
		excl = bitvec.NewSet(n)
		for v, x := range excluded {
			if x {
				excl.Add(v)
				res.Ecc[v] = -1
			}
		}
	}

	batches := (n + wordSources - 1) / wordSources
	w := effectiveWorkers(workers, batches)
	var (
		nextBatch atomic.Int64
		stop      atomic.Bool
		mu        sync.Mutex
		wg        sync.WaitGroup
	)
	hists := make([][]int64, w)
	for worker := 0; worker < w; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			st := newBatchState(n)
			for !stop.Load() {
				b := int(nextBatch.Add(1)) - 1
				if b >= batches {
					break
				}
				base := b * wordSources
				k := n - base
				if k > wordSources {
					k = wordSources
				}
				ok, missSrc, missDst := runBitBatch(d, base, k, excl, st, res.Ecc)
				if !ok {
					mu.Lock()
					if res.Complete {
						res.Complete = false
						res.MissingSrc, res.MissingDst = missSrc, missDst
					}
					mu.Unlock()
					stop.Store(true)
					break
				}
			}
			hists[worker] = st.hist
		}(worker)
	}
	wg.Wait()
	if !res.Complete {
		return res
	}
	for _, h := range hists {
		res.Hist = mergeHist(res.Hist, h)
	}
	return res
}

const wordSources = 64

// effectiveWorkers returns the worker count of a pool over n work units
// given the requested count (<= 0 means GOMAXPROCS): never more than n,
// never fewer than one.
func effectiveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

func mergeHist(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, c := range src {
		dst[i] += c
	}
	return dst
}
