package noc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/collectives"
	"repro/internal/faults"
	"repro/internal/graph"
)

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift

	// idleClaim marks an unclaimed channel; every claim key is smaller.
	idleClaim = ^uint64(0)

	permSeedSalt  = 0x5bd1e995
	shardSeedSalt = 0x9e3779b97f4a7c15 >> 1
)

// worm is one in-flight packet. path/chans/vcs/occupied are
// fixed-capacity sub-slices of the owning shard's slab.
type worm struct {
	path     []int32 // node sequence, endpoints included
	chans    []int32 // directed edge id per hop
	vcs      []int8  // VC per hop; -1 = adaptive, chosen at acquire time
	occupied []int8  // flits buffered per hop
	headHop  int32   // furthest acquired hop (-1 before the first)
	tailHop  int32
	toInject int32
	sunk     int32
	injected int32 // injection cycle
	escStart int32 // first escape hop (-1 until the worm escapes)
	msg      int32 // collective message id (-1 for background traffic)
	prio     uint32
	epoch    uint32 // invalidates stale waiter entries
	blocked  int32  // consecutive cycles the head failed to advance
	claimCh  int32
	claimKey uint64
	alive    bool
	parked   bool
	doomed   bool
}

type waitEntry struct {
	slot  int32
	epoch uint32
}

type parkEntry struct {
	edge  int32
	slot  int32
	epoch uint32
}

// shard owns an interleaved subset of nodes (v % nshards == id), the
// worms injected there, and all per-worker scratch, so parallel phases
// write only shard-local state plus exclusively-owned channel entries.
type shard struct {
	id       int32
	rng      *rand.Rand
	heap     []int64 // next injection per node: cycle<<32 | node, min-heap
	chunks   [][]worm
	slabs    [][]int32 // backing arrays, kept so reset can rebuild nothing
	free     []int32
	dfree    []int32 // slots retired by dropCrossing, recycled next postCycle
	act      []int32 // worms to process this cycle
	nxt      []int32 // worms still active next cycle
	parks    []parkEntry
	freed    []int32 // edges released this cycle (wake their waiters)
	dmsgs    []int32 // collective msgs delivered this cycle
	pend     []int32 // collective msgs ready to inject
	routeBuf []int
	clsBuf   []int8
	seq      uint32
	err      error

	injected   int
	delivered  int
	dropped    int
	skipped    int
	escapes    int
	totalLat   int64
	maxLat     int
	flits      int64
	progressed bool
}

// Engine is a reusable discrete-event wormhole simulator; build with
// New, execute with Run (repeatable, allocation-free at steady state).
type Engine struct {
	cfg       Config
	d         *graph.Dense
	n         int
	nshards   int
	shardBits uint
	workers   int
	vcs       int
	escBase   int // first escape VC index; == vcs in oblivious mode
	adaptive  bool
	patience  int32
	hopCap    int

	deadlockAt  int
	injectUntil int

	offsets  []int32
	owner    []int32 // channel -> owning worm slot, -1 free
	occ      []int32 // channel -> buffered flits
	claim    []uint64
	waiters  [][]waitEntry
	faulty   []bool
	deadEdge []bool
	dynamic  bool

	schedule       faults.Schedule
	links          faults.LinkSchedule
	evNode, evLink int

	perm    []int
	permRng *rand.Rand
	usable  func(int) bool

	msgs      []collectives.Msg
	msgOut    [][]int32
	msgDepCnt []int32
	msgWait   []int32

	shards []shard

	res          Result
	idle         int
	totalLat     int64
	msgDelivered int
	runErr       error

	barrier spinBarrier
	cycle   int
	stop    bool
}

// spinBarrier is a sense-reversing spin barrier for the persistent
// per-Run workers; atomics give the race detector the happens-before
// edges that order the phase-local plain accesses.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for i := 0; b.gen.Load() == g; i++ {
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

func atomicMin(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if v >= old || atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}

func (e *Engine) wormAt(slot int32) *worm {
	s := &e.shards[slot&int32(e.nshards-1)]
	local := slot >> e.shardBits
	return &s.chunks[local>>chunkShift][local&(chunkSize-1)]
}

func (e *Engine) chIdx(w *worm, h int32) int {
	return int(w.chans[h])*e.vcs + int(w.vcs[h])
}

func (e *Engine) edgeID(u, w int) int32 {
	row := e.d.Neighbors(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < int32(w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(row) || row[lo] != int32(w) {
		panic(fmt.Sprintf("noc: route uses non-edge %d-%d", u, w))
	}
	return e.offsets[u] + int32(lo)
}

// --- worm slab ---

func (e *Engine) allocWorm(s *shard) int32 {
	if k := len(s.free); k > 0 {
		slot := s.free[k-1]
		s.free = s.free[:k-1]
		return slot
	}
	ci := len(s.chunks)
	if ci >= 1<<(30-chunkShift-e.shardBits) {
		s.err = fmt.Errorf("noc: worm slab exhausted (shard %d)", s.id)
		return -1
	}
	pathCap := e.hopCap + 1
	ws := make([]worm, chunkSize)
	paths := make([]int32, chunkSize*pathCap)
	chans := make([]int32, chunkSize*e.hopCap)
	vcs := make([]int8, chunkSize*e.hopCap)
	occ := make([]int8, chunkSize*e.hopCap)
	for i := range ws {
		ws[i].path = paths[i*pathCap : i*pathCap : (i+1)*pathCap]
		ws[i].chans = chans[i*e.hopCap : i*e.hopCap : (i+1)*e.hopCap]
		ws[i].vcs = vcs[i*e.hopCap : i*e.hopCap : (i+1)*e.hopCap]
		ws[i].occupied = occ[i*e.hopCap : i*e.hopCap : (i+1)*e.hopCap]
	}
	s.chunks = append(s.chunks, ws)
	// Keep the free list able to hold every slot of every chunk, so a
	// later reset can rebuild it without growing (the zero-alloc gate).
	if total := (ci + 1) * chunkSize; cap(s.free) < total {
		nf := make([]int32, len(s.free), total)
		copy(nf, s.free)
		s.free = nf
	}
	base := int32(ci << chunkShift)
	for i := chunkSize - 1; i >= 1; i-- {
		s.free = append(s.free, (base+int32(i))<<e.shardBits|s.id)
	}
	return base<<e.shardBits | s.id
}

func (e *Engine) freeWorm(s *shard, w *worm, slot int32) {
	w.alive = false
	w.parked = false
	w.epoch++
	s.free = append(s.free, slot)
}

// deferFreeWorm retires a worm whose slot may still be referenced by a
// stale s.act entry: dropCrossing runs after the act/nxt swap, so the
// entry is consumed only during the coming cycle. Returning the slot to
// s.free now would let the next injectShard pop it (LIFO) and append a
// second act entry for the same slot, double-processing the new worm.
// The slot rejoins the free list in postCycle, after act is consumed.
func (e *Engine) deferFreeWorm(s *shard, w *worm, slot int32) {
	w.alive = false
	w.parked = false
	w.epoch++
	s.dfree = append(s.dfree, slot)
}

// --- injection ---

func heapPush(h []int64, v int64) []int64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []int64) []int64 {
	k := len(h) - 1
	h[0] = h[k]
	h = h[:k]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < k && h[l] < h[m] {
			m = l
		}
		if r < k && h[r] < h[m] {
			m = r
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// gap draws the geometric spacing between successive injections of one
// node — the event-driven equivalent of a per-cycle Bernoulli trial.
func gap(rng *rand.Rand, rate float64) int {
	if rate >= 1 {
		return 0
	}
	g := int(math.Log(1-rng.Float64()) / math.Log(1-rate))
	if g < 0 {
		return 0
	}
	return g
}

func (e *Engine) injectShard(s *shard, c int) {
	if s.err != nil {
		return
	}
	for _, mi := range s.pend {
		m := &e.msgs[mi]
		if e.faulty[m.Src] || e.faulty[m.Dst] {
			s.skipped++
			continue
		}
		e.startWorm(s, c, m.Src, m.Dst, mi)
	}
	s.pend = s.pend[:0]
	if e.cfg.Rate <= 0 || c >= e.injectUntil {
		return
	}
	for len(s.heap) > 0 && int(s.heap[0]>>32) <= c {
		v := int(s.heap[0] & 0xffffffff)
		s.heap = heapPop(s.heap)
		s.heap = heapPush(s.heap, int64(c+1+gap(s.rng, e.cfg.Rate))<<32|int64(v))
		if e.faulty[v] {
			s.skipped++
			continue
		}
		dst, ok := DrawDest(e.cfg.Pattern, s.rng, e.perm, e.n, v, e.usable)
		if !ok {
			s.skipped++
			continue
		}
		e.startWorm(s, c, v, dst, -1)
	}
}

func (e *Engine) startWorm(s *shard, c, src, dst int, msg int32) {
	slot := e.allocWorm(s)
	if slot < 0 {
		return
	}
	w := e.wormAt(slot)
	w.path = append(w.path[:0], int32(src))
	w.chans = w.chans[:0]
	w.vcs = w.vcs[:0]

	if e.adaptive {
		ad := e.cfg.Adaptive
		d0 := ad.Distance(src, dst)
		row := e.d.Neighbors(src)
		base := e.offsets[src]
		best, bestEdge, bestScore := -1, int32(-1), int32(1<<30)
		for k, nb := range row {
			wi := int(nb)
			if e.faulty[wi] {
				continue
			}
			edge := base + int32(k)
			if e.deadEdge[edge] {
				continue
			}
			if ad.Distance(wi, dst) != d0-1 {
				continue
			}
			// Congestion score of the adaptive VCs on this link: owned
			// channels weigh a full buffer, plus actual buffered flits.
			score := int32(0)
			for vc := 0; vc < e.escBase; vc++ {
				ch := int(edge)*e.vcs + vc
				if e.owner[ch] >= 0 {
					score += int32(e.cfg.BufDepth)
				}
				score += e.occ[ch]
			}
			if score < bestScore {
				bestScore, best, bestEdge = score, wi, edge
			}
		}
		if best < 0 {
			s.skipped++
			e.freeWorm(s, w, slot)
			return
		}
		s.routeBuf = ad.AppendRoute(best, dst, s.routeBuf[:0])
		if len(s.routeBuf) > e.cfg.MaxRoute || len(s.routeBuf) < 1 {
			s.err = fmt.Errorf("noc: adaptive route %d->%d has %d hops (MaxRoute %d)",
				src, dst, len(s.routeBuf), e.cfg.MaxRoute)
			e.freeWorm(s, w, slot)
			return
		}
		w.chans = append(w.chans, bestEdge)
		w.vcs = append(w.vcs, -1)
		prev := best
		ok := true
		for _, x := range s.routeBuf {
			w.path = append(w.path, int32(x))
			if x == prev {
				continue
			}
			edge := e.edgeID(prev, x)
			if e.dynamic && (e.faulty[x] || e.deadEdge[edge]) {
				ok = false
				break
			}
			w.chans = append(w.chans, edge)
			w.vcs = append(w.vcs, -1)
			prev = x
		}
		if !ok || len(w.path) != len(w.chans)+1 {
			s.skipped++
			e.freeWorm(s, w, slot)
			return
		}
	} else {
		s.routeBuf = e.cfg.Route(src, dst, s.routeBuf[:0])
		path := s.routeBuf
		if e.cfg.Rerouter != nil && e.crossesFault(path) {
			var err error
			if path, err = e.cfg.Rerouter.Reroute(src, dst); err != nil {
				s.skipped++
				e.freeWorm(s, w, slot)
				return
			}
		}
		if len(path) < 2 || path[0] != src || path[len(path)-1] != dst || len(path)-1 > e.cfg.MaxRoute {
			s.err = fmt.Errorf("noc: bad route %v for %d->%d (MaxRoute %d)", path, src, dst, e.cfg.MaxRoute)
			e.freeWorm(s, w, slot)
			return
		}
		if ok, err := e.extend(w, path, 0); !ok {
			if err != nil {
				s.err = err
			} else {
				s.skipped++
			}
			e.freeWorm(s, w, slot)
			return
		}
	}

	hops := len(w.chans)
	w.occupied = w.occupied[:hops]
	for i := range w.occupied {
		w.occupied[i] = 0
	}
	w.headHop = -1
	w.tailHop = 0
	w.toInject = int32(e.cfg.PacketLen)
	w.sunk = 0
	w.injected = int32(c)
	w.escStart = -1
	w.msg = msg
	w.blocked = 0
	w.claimCh = -1
	w.alive = true
	w.parked = false
	w.doomed = false
	w.prio = s.seq<<e.shardBits | uint32(s.id)
	w.claimKey = uint64(w.prio)<<32 | uint64(uint32(slot))
	s.seq++
	s.injected++
	s.act = append(s.act, slot)
}

// extend appends walk[1:] to w's route, choosing VCs by replaying
// Policy from state; walk[0] must be w's last path node. It reports
// false, leaving w partly extended, when a hop crosses a live fault.
func (e *Engine) extend(w *worm, walk []int, state int) (bool, error) {
	for i := 1; i < len(walk); i++ {
		var vc int
		vc, state = e.cfg.Policy(len(w.chans), walk[i-1], walk[i], state)
		if vc < 0 || vc >= e.vcs {
			return false, fmt.Errorf("noc: policy chose vc %d of %d", vc, e.vcs)
		}
		edge := e.edgeID(walk[i-1], walk[i])
		if e.dynamic && (e.faulty[walk[i]] || e.deadEdge[edge]) {
			return false, nil
		}
		w.path = append(w.path, int32(walk[i]))
		w.chans = append(w.chans, edge)
		w.vcs = append(w.vcs, int8(vc))
	}
	return true, nil
}

func (e *Engine) crossesFault(path []int) bool {
	for _, x := range path {
		if e.faulty[x] {
			return true
		}
	}
	return false
}

// --- claim phase ---

func (e *Engine) claimShard(s *shard, c int) {
	for _, slot := range s.act {
		w := e.wormAt(slot)
		if !w.alive || w.doomed {
			continue
		}
		w.claimCh = -1
		last := int32(len(w.chans)) - 1
		if w.headHop >= last {
			continue
		}
		if e.adaptive && w.escStart < 0 && w.blocked >= e.patience {
			e.spliceEscape(s, w)
			if w.doomed {
				continue
			}
			last = int32(len(w.chans)) - 1
		}
		h := w.headHop + 1
		edge := w.chans[h]
		pick := int32(-1)
		if vc := w.vcs[h]; vc >= 0 {
			ch := edge*int32(e.vcs) + int32(vc)
			if e.owner[ch] < 0 {
				pick = ch
			}
		} else {
			base := edge * int32(e.vcs)
			for vc := 0; vc < e.escBase; vc++ {
				if e.owner[base+int32(vc)] < 0 {
					pick = base + int32(vc)
					break
				}
			}
		}
		if pick < 0 {
			continue
		}
		w.claimCh = pick
		atomicMin(&e.claim[pick], w.claimKey)
	}
}

// spliceEscape reroutes a blocked worm: the unacquired tail of its path
// is replaced by the escape walk from the head's current node, on the
// reserved stage-ordered escape VCs. If churn has killed part of the
// walk the worm is doomed instead (dropped at commit).
func (e *Engine) spliceEscape(s *shard, w *worm) {
	ad := e.cfg.Adaptive
	keep := w.headHop + 2 // nodes up to and including the head's position
	head := int(w.path[keep-1])
	dst := int(w.path[len(w.path)-1])
	w.path = w.path[:keep]
	w.chans = w.chans[:keep-1]
	w.vcs = w.vcs[:keep-1]
	w.occupied = w.occupied[:keep-1]
	plen := len(w.path)
	s.clsBuf = s.clsBuf[:0]
	w.path, s.clsBuf = ad.Escape.AppendHops(head, dst, w.path, s.clsBuf)
	prev := int32(head)
	for i, x := range w.path[plen:] {
		edge := e.edgeID(int(prev), int(x))
		if e.dynamic && (e.faulty[x] || e.deadEdge[edge]) {
			w.doomed = true
			return
		}
		w.chans = append(w.chans, edge)
		w.vcs = append(w.vcs, int8(e.escBase)+s.clsBuf[i])
		w.occupied = append(w.occupied, 0)
		prev = x
	}
	w.escStart = keep - 1
	w.blocked = 0
	s.escapes++
}

// --- commit phase ---

func (e *Engine) commitShard(s *shard, c int) {
	bufDepth := int8(e.cfg.BufDepth)
	for _, slot := range s.act {
		w := e.wormAt(slot)
		if !w.alive {
			continue
		}
		if w.doomed {
			e.dropWorm(s, w, slot)
			continue
		}
		progress := false
		last := int32(len(w.chans)) - 1
		// Sink at the destination.
		if w.headHop == last && w.occupied[last] > 0 {
			w.occupied[last]--
			e.occ[e.chIdx(w, last)]--
			w.sunk++
			s.flits++
			progress = true
		}
		// Acquire the claimed channel if this worm won the claim.
		if w.claimCh >= 0 {
			if atomic.LoadUint64(&e.claim[w.claimCh]) == w.claimKey {
				atomic.StoreUint64(&e.claim[w.claimCh], idleClaim)
				h := w.headHop + 1
				e.owner[w.claimCh] = slot
				w.vcs[h] = int8(w.claimCh % int32(e.vcs))
				w.headHop = h
				w.blocked = 0
				progress = true
			} else {
				w.blocked++
			}
		} else if w.headHop < last {
			w.blocked++
		}
		// Shift flits downstream-first between adjacent owned channels.
		for h := w.headHop; h > w.tailHop; h-- {
			if w.occupied[h] < bufDepth && w.occupied[h-1] > 0 {
				w.occupied[h]++
				e.occ[e.chIdx(w, h)]++
				w.occupied[h-1]--
				e.occ[e.chIdx(w, h-1)]--
				s.flits++
				progress = true
			}
		}
		// Inject the next flit at the source.
		if w.toInject > 0 && w.headHop >= w.tailHop && w.occupied[w.tailHop] < bufDepth {
			w.occupied[w.tailHop]++
			e.occ[e.chIdx(w, w.tailHop)]++
			w.toInject--
			s.flits++
			progress = true
		}
		// Release drained tail channels.
		for w.toInject == 0 && w.tailHop < w.headHop && w.occupied[w.tailHop] == 0 {
			e.owner[e.chIdx(w, w.tailHop)] = -1
			s.freed = append(s.freed, w.chans[w.tailHop])
			w.tailHop++
		}
		// Completion.
		if int(w.sunk) == e.cfg.PacketLen {
			e.owner[e.chIdx(w, last)] = -1
			s.freed = append(s.freed, w.chans[last])
			s.delivered++
			lat := c + 1 - int(w.injected)
			s.totalLat += int64(lat)
			if lat > s.maxLat {
				s.maxLat = lat
			}
			if w.msg >= 0 {
				s.dmsgs = append(s.dmsgs, w.msg)
			}
			s.progressed = true
			e.freeWorm(s, w, slot)
			continue
		}
		if progress {
			s.progressed = true
			s.nxt = append(s.nxt, slot)
			continue
		}
		switch {
		case w.claimCh >= 0:
			// Lost a claim race; the edge may still have a free VC, so
			// stay active and retry (no release would wake us).
			s.nxt = append(s.nxt, slot)
		case e.adaptive && w.escStart < 0:
			// Not yet escaped: spin until patience splices the escape.
			s.nxt = append(s.nxt, slot)
		case w.headHop < last:
			// Fully blocked: park until the needed edge frees a channel.
			w.parked = true
			s.parks = append(s.parks, parkEntry{edge: w.chans[w.headHop+1], slot: slot, epoch: w.epoch})
		default:
			s.nxt = append(s.nxt, slot)
		}
	}
}

// dropWorm releases everything a worm owns and retires it (node/link
// churn or a doomed escape). Only the owning shard's worker may call it.
func (e *Engine) dropWorm(s *shard, w *worm, slot int32) {
	for h := w.tailHop; h <= w.headHop; h++ {
		ch := e.chIdx(w, h)
		e.occ[ch] -= int32(w.occupied[h])
		w.occupied[h] = 0
		e.owner[ch] = -1
		s.freed = append(s.freed, w.chans[h])
	}
	s.dropped++
	e.freeWorm(s, w, slot)
}

// --- serial phases ---

func (e *Engine) wakeEdge(edge int32, toAct bool) {
	ws := e.waiters[edge]
	if len(ws) == 0 {
		return
	}
	for _, en := range ws {
		w := e.wormAt(en.slot)
		if w.epoch != en.epoch || !w.parked {
			continue
		}
		w.parked = false
		w.blocked = 0
		sh := &e.shards[en.slot&int32(e.nshards-1)]
		if toAct {
			sh.act = append(sh.act, en.slot)
		} else {
			sh.nxt = append(sh.nxt, en.slot)
		}
	}
	e.waiters[edge] = ws[:0]
}

func (e *Engine) applyEvents(c int) {
	for e.evNode < len(e.schedule) && e.schedule[e.evNode].Cycle <= c {
		ev := e.schedule[e.evNode]
		e.evNode++
		rr := e.cfg.Rerouter
		if ev.Fail {
			if !e.faulty[ev.Node] {
				e.faulty[ev.Node] = true
				if rr != nil {
					rr.Fail(ev.Node)
				}
				e.dropCrossing(int32(ev.Node), -1)
			}
		} else if e.faulty[ev.Node] {
			e.faulty[ev.Node] = false
			if rr != nil {
				rr.Recover(ev.Node)
			}
		}
	}
	for e.evLink < len(e.links) && e.links[e.evLink].Cycle <= c {
		ev := e.links[e.evLink]
		e.evLink++
		a, b := e.edgeID(ev.U, ev.V), e.edgeID(ev.V, ev.U)
		if ev.Fail {
			if !e.deadEdge[a] {
				e.deadEdge[a], e.deadEdge[b] = true, true
				e.dropCrossing(-1, a)
				e.dropCrossing(-1, b)
			}
		} else {
			e.deadEdge[a], e.deadEdge[b] = false, false
		}
	}
}

// dropCrossing retires every live worm whose remaining journey uses the
// failed node or directed edge; runs serially at cycle start. With a
// Rerouter, a worm hit by a node failure is re-pathed instead when
// reroute can save it.
func (e *Engine) dropCrossing(node, edge int32) {
	for si := range e.shards {
		s := &e.shards[si]
		for ci := range s.chunks {
			for wi := range s.chunks[ci] {
				w := &s.chunks[ci][wi]
				if !w.alive {
					continue
				}
				hit := false
				for h := w.tailHop; h < int32(len(w.chans)) && !hit; h++ {
					if edge >= 0 && w.chans[h] == edge {
						hit = true
					}
					if node >= 0 && (w.path[h] == node || w.path[h+1] == node) {
						hit = true
					}
				}
				if !hit {
					continue
				}
				slot := (int32(ci<<chunkShift|wi))<<e.shardBits | s.id
				if node >= 0 && e.cfg.Rerouter != nil && e.reroute(s, w, slot, node) {
					continue
				}
				for h := w.tailHop; h <= w.headHop; h++ {
					ch := e.chIdx(w, h)
					e.occ[ch] -= int32(w.occupied[h])
					w.occupied[h] = 0
					e.owner[ch] = -1
					e.wakeEdge(w.chans[h], true)
				}
				s.dropped++
				e.deferFreeWorm(s, w, slot)
			}
		}
	}
}

// reroute handles a worm whose route touches the newly failed node. A
// worm keeps going untouched when the node lies only behind its flits,
// and is re-pathed when the node lies ahead of its head: it keeps the
// hops it holds and continues on Rerouter.Reroute from the head's node,
// with VCs from Policy replayed along the kept prefix. It reports false
// when the worm must be dropped: its destination failed, one of its
// flits sits at the node, or no fault-free walk exists. A walk that
// overflows the worm's hop capacity or crosses a fault fails the run.
func (e *Engine) reroute(s *shard, w *worm, slot, node int32) bool {
	keep := w.headHop + 2 // path nodes up to and including the head's
	held := w.tailHop + 1 // first node buffering a flit
	if w.toInject > 0 {
		held = w.tailHop // the source still holds flits
	}
	for _, x := range w.path[held:keep] {
		if x == node {
			return false
		}
	}
	ahead := false
	for _, x := range w.path[keep:] {
		ahead = ahead || x == node
	}
	if !ahead {
		return true
	}
	head, dst := int(w.path[keep-1]), int(w.path[len(w.path)-1])
	if dst == int(node) {
		return false
	}
	walk, err := e.cfg.Rerouter.Reroute(head, dst)
	if err != nil {
		return false
	}
	if len(walk) < 2 || walk[0] != head || walk[len(walk)-1] != dst || int(keep)+len(walk)-2 > e.hopCap {
		s.err = fmt.Errorf("noc: reroute %v for %d->%d does not fit %d kept hops and MaxRoute %d",
			walk, head, dst, keep-1, e.cfg.MaxRoute)
		return false
	}
	state := 0
	for h := int32(0); h < keep-1; h++ {
		_, state = e.cfg.Policy(int(h), int(w.path[h]), int(w.path[h+1]), state)
	}
	w.path, w.chans, w.vcs = w.path[:keep], w.chans[:keep-1], w.vcs[:keep-1]
	if ok, err := e.extend(w, walk, state); !ok {
		if err == nil {
			err = fmt.Errorf("noc: reroute %v for %d->%d crosses a fault", walk, head, dst)
		}
		s.err = err
		return false
	}
	w.occupied = w.occupied[:len(w.chans)]
	for h := keep - 1; h < int32(len(w.chans)); h++ {
		w.occupied[h] = 0
	}
	w.blocked = 0
	if w.parked {
		// Its waiter entry names a channel the new route may not use.
		w.parked = false
		w.epoch++
		s.act = append(s.act, slot)
	}
	return true
}

func (e *Engine) msgDone(mi int32, c int) {
	for _, dep := range e.msgOut[mi] {
		e.msgWait[dep]--
		if e.msgWait[dep] == 0 {
			src := e.msgs[dep].Src
			sh := &e.shards[src%e.nshards]
			sh.pend = append(sh.pend, dep)
		}
	}
	e.msgDelivered++
	if e.msgDelivered == len(e.msgs) && e.res.CollectiveDone < 0 {
		e.res.CollectiveDone = c
	}
}

func (e *Engine) nextInjection(from int) int {
	if e.cfg.Rate <= 0 || from >= e.injectUntil {
		return -1
	}
	best := -1
	for si := range e.shards {
		h := e.shards[si].heap
		if len(h) == 0 {
			continue
		}
		c := int(h[0] >> 32)
		if c < from {
			c = from
		}
		if c >= e.injectUntil {
			continue
		}
		if best < 0 || c < best {
			best = c
		}
	}
	return best
}

func (e *Engine) nextEventCycle(from int) int {
	best := -1
	if e.evNode < len(e.schedule) {
		best = e.schedule[e.evNode].Cycle
	}
	if e.evLink < len(e.links) {
		if c := e.links[e.evLink].Cycle; best < 0 || c < best {
			best = c
		}
	}
	if best >= 0 && best < from {
		best = from
	}
	return best
}

// postCycle merges shard results, wakes waiters, schedules collective
// messages, runs deadlock accounting, and picks the next cycle
// (fast-forwarding empty stretches). Returns (nextCycle, stop).
func (e *Engine) postCycle(c int) (int, bool) {
	progress := false
	pending := 0
	for si := range e.shards {
		s := &e.shards[si]
		if s.err != nil && e.runErr == nil {
			e.runErr = s.err
		}
		if s.progressed {
			progress = true
			s.progressed = false
		}
		// Slots deferred by dropCrossing last cycle: their stale act
		// entries have now been consumed, so recycling is safe again.
		s.free = append(s.free, s.dfree...)
		s.dfree = s.dfree[:0]
		for _, p := range s.parks {
			e.waiters[p.edge] = append(e.waiters[p.edge], waitEntry{slot: p.slot, epoch: p.epoch})
		}
		s.parks = s.parks[:0]
	}
	for si := range e.shards {
		s := &e.shards[si]
		for _, edge := range s.freed {
			e.wakeEdge(edge, false)
		}
		s.freed = s.freed[:0]
		for _, mi := range s.dmsgs {
			e.msgDone(mi, c)
		}
		s.dmsgs = s.dmsgs[:0]
	}
	active := 0
	for si := range e.shards {
		s := &e.shards[si]
		s.act, s.nxt = s.nxt, s.act[:0]
		active += len(s.act)
		pending += len(s.pend)
	}
	if e.runErr != nil {
		return 0, true
	}
	live := 0
	for si := range e.shards {
		s := &e.shards[si]
		live += s.injected - s.delivered - s.dropped
	}
	if live > 0 && !progress {
		e.idle++
		if e.idle >= e.deadlockAt {
			e.res.Deadlocked = true
			e.res.DeadCycle = c
			return 0, true
		}
	} else if progress {
		e.idle = 0
	}
	next := c + 1
	if next >= e.cfg.Cycles {
		return 0, true
	}
	if active == 0 && pending == 0 {
		// Nothing can move until an injection or a churn event; jump.
		target := e.nextInjection(next)
		if ev := e.nextEventCycle(next); ev >= 0 && (target < 0 || ev < target) {
			target = ev
		}
		if target < 0 {
			if live > 0 {
				// Parked worms that nothing will ever wake: deadlock now.
				e.res.Deadlocked = true
				e.res.DeadCycle = c
			}
			return 0, true
		}
		if target >= e.cfg.Cycles {
			target = e.cfg.Cycles // run out the clock below
		}
		if skip := target - next; skip > 0 && live > 0 {
			e.idle += skip
			if e.idle >= e.deadlockAt {
				e.res.Deadlocked = true
				// The skipped cycles are next..target-1; cumulative idle
				// first reaches deadlockAt at the (deadlockAt - prior
				// idle)-th of them, matching the per-cycle accounting.
				e.res.DeadCycle = next + e.deadlockAt - (e.idle - skip) - 1
				return 0, true
			}
		}
		next = target
		if next >= e.cfg.Cycles {
			return 0, true
		}
	}
	return next, false
}

// --- run ---

func (e *Engine) reset() {
	e.res = Result{Cycles: e.cfg.Cycles, CollectiveDone: -1}
	e.idle = 0
	e.totalLat = 0
	e.runErr = nil
	e.evNode, e.evLink = 0, 0
	e.msgDelivered = 0
	for i := range e.owner {
		e.owner[i] = -1
		e.occ[i] = 0
		e.claim[i] = idleClaim
	}
	for i := range e.waiters {
		e.waiters[i] = e.waiters[i][:0]
	}
	for i := range e.faulty {
		if e.faulty[i] && e.cfg.Rerouter != nil {
			e.cfg.Rerouter.Recover(i) // left faulty by the previous Run
		}
		e.faulty[i] = false
	}
	for i := range e.deadEdge {
		e.deadEdge[i] = false
	}
	for i := range e.perm {
		e.perm[i] = i
	}
	e.permRng.Seed(e.cfg.Seed ^ permSeedSalt)
	for i := e.n - 1; i > 0; i-- {
		j := e.permRng.Intn(i + 1)
		e.perm[i], e.perm[j] = e.perm[j], e.perm[i]
	}
	for i := range e.msgWait {
		e.msgWait[i] = e.msgDepCnt[i]
	}
	for si := range e.shards {
		s := &e.shards[si]
		s.rng.Seed(e.cfg.Seed ^ int64(si)*shardSeedSalt)
		s.heap = s.heap[:0]
		s.act = s.act[:0]
		s.nxt = s.nxt[:0]
		s.parks = s.parks[:0]
		s.freed = s.freed[:0]
		s.dmsgs = s.dmsgs[:0]
		s.pend = s.pend[:0]
		s.free = s.free[:0]
		s.dfree = s.dfree[:0]
		for ci := range s.chunks {
			for wi := chunkSize - 1; wi >= 0; wi-- {
				s.chunks[ci][wi].alive = false
				s.chunks[ci][wi].parked = false
				s.free = append(s.free, (int32(ci<<chunkShift|wi))<<e.shardBits|s.id)
			}
		}
		s.seq = 0
		s.err = nil
		s.injected, s.delivered, s.dropped, s.skipped, s.escapes = 0, 0, 0, 0, 0
		s.totalLat, s.maxLat, s.flits = 0, 0, 0
		s.progressed = false
		if e.cfg.Rate > 0 {
			for v := si; v < e.n; v += e.nshards {
				s.heap = heapPush(s.heap, int64(gap(s.rng, e.cfg.Rate))<<32|int64(v))
			}
		}
	}
	for i, m := range e.msgs {
		if e.msgDepCnt[i] == 0 {
			sh := &e.shards[m.Src%e.nshards]
			sh.pend = append(sh.pend, int32(i))
		}
	}
}

// Run executes the configured workload and returns the aggregate
// result. Run may be called repeatedly; every call replays the same
// seeded workload and, once slab high-water marks are reached, performs
// no heap allocation.
func (e *Engine) Run() (Result, error) {
	e.reset()
	e.applyEvents(0)
	if e.workers <= 1 {
		e.runSerial()
	} else {
		e.runParallel()
	}
	for si := range e.shards {
		s := &e.shards[si]
		e.res.Injected += s.injected
		e.res.Delivered += s.delivered
		e.res.Dropped += s.dropped
		e.res.Skipped += s.skipped
		e.res.Escapes += s.escapes
		e.res.FlitEvents += s.flits
		e.res.InFlight += s.injected - s.delivered - s.dropped
		if s.maxLat > e.res.MaxLatency {
			e.res.MaxLatency = s.maxLat
		}
		e.totalLat += s.totalLat
	}
	if e.res.Delivered > 0 {
		e.res.AvgLatency = float64(e.totalLat) / float64(e.res.Delivered)
	}
	e.res.Throughput = float64(e.res.Delivered) / float64(e.cfg.Cycles)
	return e.res, e.runErr
}

func (e *Engine) runSerial() {
	c := 0
	for {
		for si := range e.shards {
			e.injectShard(&e.shards[si], c)
		}
		for si := range e.shards {
			e.claimShard(&e.shards[si], c)
		}
		for si := range e.shards {
			e.commitShard(&e.shards[si], c)
		}
		next, stop := e.postCycle(c)
		if stop {
			return
		}
		e.applyEvents(next)
		c = next
	}
}

func (e *Engine) runParallel() {
	e.barrier.n = int32(e.workers)
	e.barrier.count.Store(0)
	e.cycle = 0
	e.stop = false
	var wg sync.WaitGroup
	for id := 1; id < e.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.workerLoop(id)
		}(id)
	}
	e.workerLoop(0)
	wg.Wait()
}

func (e *Engine) workerLoop(id int) {
	for {
		e.barrier.wait()
		if e.stop {
			return
		}
		c := e.cycle
		for si := id; si < e.nshards; si += e.workers {
			e.injectShard(&e.shards[si], c)
		}
		e.barrier.wait()
		for si := id; si < e.nshards; si += e.workers {
			e.claimShard(&e.shards[si], c)
		}
		e.barrier.wait()
		for si := id; si < e.nshards; si += e.workers {
			e.commitShard(&e.shards[si], c)
		}
		e.barrier.wait()
		if id == 0 {
			next, stop := e.postCycle(c)
			if stop {
				e.stop = true
			} else {
				e.applyEvents(next)
				e.cycle = next
			}
		}
	}
}
