package hbserve

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Dims keys one HB(m,n) instance.
type Dims struct {
	M int
	N int
}

func (d Dims) String() string { return fmt.Sprintf("HB(%d,%d)", d.M, d.N) }

// Pool is a bounded, lazily-filled cache of constructed HB(m,n)
// instances. Every instance is a *core.HyperButterfly, which serves
// /route, /paths and /faultroute on e.g. HB(10,10) (~10.5M nodes) by
// label arithmetic with zero graph construction; its dense adjacency is
// built only when a verify=1 BFS oracle asks for it. Instances pin memory once that
// adjacency or their route caches warm up, so the pool evicts the
// least-recently-used instance beyond Max. A per-entry sync.Once keeps
// concurrent first requests for the same dims from building twice, and
// the pool lock is never held across construction.
type Pool struct {
	// Max is the instance cap; <= 0 means DefaultPoolMax.
	Max int
	// MaxOrder bounds the served instances: dimensions above it are
	// rejected. <= 0 means DefaultMaxOrder.
	MaxOrder int

	mu      sync.Mutex
	entries map[Dims]*poolEntry
	lru     *list.List // front = most recently used; values are Dims

	evictions uint64

	// construct builds an instance; tests override it to hold a build
	// open and race evictions against it. Nil means core.New.
	construct func(d Dims) (*core.HyperButterfly, error)
}

// DefaultPoolMax bounds the number of live instances.
const DefaultPoolMax = 8

// DefaultMaxOrder caps the served instances. Instances hold no
// adjacency unless a verify=1 oracle builds one, so the bound exists
// only to keep per-request label work (and response sizes) sane;
// HB(10,10) at ~10.5M nodes fits.
const DefaultMaxOrder = 1 << 24

type poolEntry struct {
	once  sync.Once
	built atomic.Bool // set after once.Do completes; evictions prefer built entries
	top   *core.HyperButterfly
	err   error
	elem  *list.Element
}

// Get returns the HB(d.M, d.N) instance, constructing it on first use
// and bumping its recency. Safe for concurrent use.
func (p *Pool) Get(d Dims) (*core.HyperButterfly, error) {
	maxOrder := p.MaxOrder
	if maxOrder <= 0 {
		maxOrder = DefaultMaxOrder
	}
	order, err := orderOf(d)
	if err != nil {
		return nil, err
	}
	if order > maxOrder {
		return nil, fmt.Errorf("hbserve: %v has %d nodes, over the service cap %d", d, order, maxOrder)
	}

	p.mu.Lock()
	if p.entries == nil {
		p.entries = make(map[Dims]*poolEntry)
		p.lru = list.New()
	}
	e, ok := p.entries[d]
	if ok {
		p.lru.MoveToFront(e.elem)
	} else {
		e = &poolEntry{}
		e.elem = p.lru.PushFront(d)
		p.entries[d] = e
		max := p.Max
		if max <= 0 {
			max = DefaultPoolMax
		}
		// Evict from the LRU end, but never the entry this call just
		// inserted (a caller must get back the instance it asked for) and
		// never an entry another goroutine is still constructing —
		// evicting mid-build would let a concurrent Get for the same dims
		// start a second build of the same instance. If every candidate
		// is in-flight the pool overshoots Max briefly instead.
		for p.lru.Len() > max {
			victim := (*list.Element)(nil)
			for el := p.lru.Back(); el != nil && el != e.elem; el = el.Prev() {
				if p.entries[el.Value.(Dims)].built.Load() {
					victim = el
					break
				}
			}
			if victim == nil {
				break
			}
			p.lru.Remove(victim)
			delete(p.entries, victim.Value.(Dims))
			p.evictions++
		}
	}
	p.mu.Unlock()

	e.once.Do(func() {
		if p.construct != nil {
			e.top, e.err = p.construct(d)
		} else {
			e.top, e.err = core.New(d.M, d.N)
		}
		e.built.Store(true)
	})
	if e.err != nil {
		// A failed build must not stay resident: it would occupy an LRU
		// slot (able to evict real instances), count toward Len, and pin
		// the error for every later Get. Remove it — guarded by identity,
		// since a later Get may already have inserted a fresh entry — so
		// the next Get for these dims retries construction.
		p.mu.Lock()
		if p.entries[d] == e {
			p.lru.Remove(e.elem)
			delete(p.entries, d)
		}
		p.mu.Unlock()
		return nil, e.err
	}
	return e.top, e.err
}

// Len returns the number of resident successfully constructed
// instances; entries still being built by a concurrent Get — and
// failed builds awaiting removal by their Get — are not counted.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.entries {
		// built.Load() orders the read of e.err after the builder's writes.
		if e.built.Load() && e.err == nil {
			n++
		}
	}
	return n
}

// Evictions returns the number of instances dropped by the LRU bound.
func (p *Pool) Evictions() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// orderOf computes n·2^(m+n) without constructing anything, validating
// the dimension ranges core.New itself enforces.
func orderOf(d Dims) (int, error) {
	if d.M < 0 || d.M > 30 {
		return 0, fmt.Errorf("hbserve: m=%d outside [0,30]", d.M)
	}
	if d.N < 3 || d.N > 30 {
		return 0, fmt.Errorf("hbserve: n=%d outside [3,30]", d.N)
	}
	if d.M+d.N > 30 {
		return 0, fmt.Errorf("hbserve: m+n=%d too large", d.M+d.N)
	}
	return d.N << uint(d.M+d.N), nil
}
