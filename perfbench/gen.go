package main

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hbserve"
)

// The serving workloads run on HB(3,8), the paper's Table 2 instance
// (16384 nodes, degree 7).
const (
	benchM        = 3
	benchN        = 8
	hotPairs      = 1024 // the route-router hot set the route cache holds
	faultSets     = 4    // rotating /faultroute fault sets
	faultsPerSet  = benchM + 3
	batchPairs    = 1024 // pairs per /batch body
	ctBatchBinary = "application/x-hbbatch"
)

// reqKind is the endpoint a request goes to.
type reqKind int

const (
	reqRoute reqKind = iota
	reqFaultRoute
	reqBatch
	reqPaths
)

var endpoints = [...]string{reqRoute: "/route", reqFaultRoute: "/faultroute", reqBatch: "/batch", reqPaths: "/paths"}

func (k reqKind) path() string { return endpoints[k] }

// request is one generated HTTP call. The program sees only its URL
// and body; the remaining fields are what the answer is checked
// against.
type request struct {
	kind     reqKind
	u, v     int
	fset     int   // fault set index, /faultroute
	src, dst []int // /batch columns
	url      string
	body     []byte // /batch body, binary codec
}

// units is the work the request asks for, in capacity_per_s units.
func (r *request) units() int {
	if r.kind == reqBatch {
		return len(r.src)
	}
	return 1
}

// inputs holds what every request stream of a run draws from; it is
// built once from the seed.
type inputs struct {
	seed      int64
	order     int
	hot       [][2]int
	faults    [][]int
	faultArgs []string // faults[i] as a query value
	faultMask []map[int]bool
}

func newInputs(seed int64) *inputs {
	hb := core.MustNew(benchM, benchN)
	in := &inputs{seed: seed, order: hb.Order()}
	rng := rand.New(rand.NewSource(mixSeed(seed, 0)))
	for len(in.hot) < hotPairs {
		u, v := rng.Intn(in.order), rng.Intn(in.order)
		if u != v {
			in.hot = append(in.hot, [2]int{u, v})
		}
	}
	for i := 0; i < faultSets; i++ {
		set := map[int]bool{}
		var list []string
		var nodes []int
		for len(nodes) < faultsPerSet {
			f := rng.Intn(in.order)
			if !set[f] {
				set[f] = true
				nodes = append(nodes, f)
				list = append(list, strconv.Itoa(f))
			}
		}
		in.faults = append(in.faults, nodes)
		in.faultArgs = append(in.faultArgs, strings.Join(list, ","))
		in.faultMask = append(in.faultMask, set)
	}
	return in
}

// mixSeed derives the seed of stream id from the run seed (splitmix64
// finaliser), so streams are independent and repeat for a seed.
func mixSeed(seed int64, id int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// stream is one connection's request sequence.
type stream struct {
	in      *inputs
	kind    kind
	rng     *rand.Rand
	nfaults int // /faultroute requests so far, for the fault set rotation
}

// Stream ids: each phase of a run draws from its own ids, so fresh
// pairs stay fresh from one phase to the next.
const (
	streamCheck   = 1
	streamWarm    = 100
	streamClosed  = 200
	streamOpen    = 300
	streamTraced  = 400
	streamPlain   = 500
	streamProbe   = 600
	streamReplay  = 700
	streamCounter = 800
	streamSetup   = 900
)

func (in *inputs) stream(k kind, id int64) *stream {
	return &stream{in: in, kind: k, rng: rand.New(rand.NewSource(mixSeed(in.seed, id)))}
}

func (s *stream) pair() (int, int) {
	for {
		u, v := s.rng.Intn(s.in.order), s.rng.Intn(s.in.order)
		if u != v {
			return u, v
		}
	}
}

// next returns the stream's next request in the workload's mix.
func (s *stream) next() request {
	if s.kind == kindBatchRouter {
		return s.batch()
	}
	switch p := s.rng.Intn(100); {
	case p < 45:
		h := s.in.hot[s.rng.Intn(len(s.in.hot))]
		return routeRequest(h[0], h[1])
	case p < 90:
		return routeRequest(s.pair())
	default:
		return s.faultRoute()
	}
}

func routeRequest(u, v int) request {
	return request{kind: reqRoute, u: u, v: v, url: nodeURL("/route?", u, v)}
}

func (s *stream) fresh() request { return routeRequest(s.pair()) }

// faultRoute draws endpoints outside the next fault set of the
// rotation.
func (s *stream) faultRoute() request {
	set := s.nfaults % faultSets
	s.nfaults++
	mask := s.in.faultMask[set]
	u, v := s.pair()
	for mask[u] || mask[v] {
		u, v = s.pair()
	}
	return request{kind: reqFaultRoute, u: u, v: v, fset: set,
		url: nodeURL("/faultroute?", u, v) + "&faults=" + s.in.faultArgs[set]}
}

func (s *stream) paths() request {
	u, v := s.pair()
	return request{kind: reqPaths, u: u, v: v, url: nodeURL("/paths?", u, v)}
}

func (s *stream) batch() request {
	src := make([]int, batchPairs)
	dst := make([]int, batchPairs)
	for i := range src {
		src[i], dst[i] = s.rng.Intn(s.in.order), s.rng.Intn(s.in.order)
	}
	body, err := hbserve.EncodeBatchBinRequest("route", benchM, benchN, nil, src, dst)
	if err != nil {
		panic(err) // "route" is a known op; only a bug gets here
	}
	return request{kind: reqBatch, src: src, dst: dst, url: "/batch", body: body}
}

func nodeURL(prefix string, u, v int) string {
	b := make([]byte, 0, 48)
	b = append(b, prefix...)
	b = append(b, "m="...)
	b = strconv.AppendInt(b, benchM, 10)
	b = append(b, "&n="...)
	b = strconv.AppendInt(b, benchN, 10)
	b = append(b, "&u="...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, "&v="...)
	b = strconv.AppendInt(b, int64(v), 10)
	return string(b)
}
