package hbserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultroute"
)

// The /batch endpoint answers thousands of (src, dst) pairs per POST,
// amortising the per-request overhead (HTTP parsing, dispatch, encode)
// that dwarfs the label-arithmetic kernel on single-pair GETs. Requests
// and responses are columnar in two codecs selected by Content-Type:
//
//   - application/json — columns as JSON arrays
//     ({"m":2,"n":3,"op":"route","src":[...],"dst":[...]});
//   - application/x-hbbatch — length-prefixed little-endian binary
//     frames (see README "Batch serving" for the layout).
//
// Four ops share the request shape: dist and route run on the
// zero-alloc core.RouteBatch kernel, paths bundles Theorem 5 disjoint
// paths per pair, and faultroute routes the whole request around one
// shared fault set on a router built for that request. Responses are
// columnar too: a per-pair status column plus offset columns into one
// flat node arena, which is exactly the kernel's in-memory layout — the
// encoders serialise it without reshaping.
//
// The request side reuses storage too. handleBatch takes a pooled
// batchScratch before it reads anything, reads the body into the
// scratch's buffer and decodes it into the scratch's batchRequest, so a
// warm replica allocates no per-pair garbage for a binary request (a
// JSON body decodes into fresh columns). Ownership rule: a decoded
// request aliases its pooled scratch, and nothing keeps it once the
// handler returns — faultroute.New, the faults echo of appendBatchJSON
// and every encoder finish before the scratch goes back to its pool. A
// body buffer grown past maxPooledBody is dropped rather than pooled,
// so one near-maxBatchBody request does not pin tens of MB.

const (
	// batchBinMagic opens every binary frame stream ("HBB1" on the wire).
	batchBinMagic uint32 = 0x31424248
	// batchBinVersion is the framing version; both sides reject others.
	batchBinVersion uint16 = 1
	// maxBatchPairs bounds one request; beyond it the client should
	// split the batch (the response would exceed sane body sizes).
	maxBatchPairs = 1 << 16
	// maxBatchBody bounds the request body read.
	maxBatchBody = 16 << 20
	// maxPooledBody bounds the body buffer a pooled batchScratch keeps:
	// 128 times the ~8 KB binary body of a 1024-pair route batch.
	maxPooledBody = 1 << 20

	ctJSON     = "application/json"
	ctBatchBin = "application/x-hbbatch"
)

// Binary op codes (wire values, stable).
const (
	batchOpDist       uint8 = 0
	batchOpRoute      uint8 = 1
	batchOpPaths      uint8 = 2
	batchOpFaultRoute uint8 = 3
)

var batchOpNames = map[uint8]string{
	batchOpDist:       "dist",
	batchOpRoute:      "route",
	batchOpPaths:      "paths",
	batchOpFaultRoute: "faultroute",
}

var batchOpCodes = map[string]uint8{
	"dist":       batchOpDist,
	"route":      batchOpRoute,
	"paths":      batchOpPaths,
	"faultroute": batchOpFaultRoute,
}

// batchRequest is one decoded /batch request, codec-independent.
type batchRequest struct {
	codec  string // "json" or "bin"
	op     uint8
	m, n   int
	faults []int
	src    []int
	dst    []int
}

// batchScratch is the pooled per-request working set: the request body
// and its decoded columns, the kernel's column scratch plus the extra
// columns the composed ops (paths, faultroute) fill, and the encoded
// response.
type batchScratch struct {
	body bytes.Buffer // the request body as read
	req  batchRequest // body decoded; its columns alias this scratch

	bs    core.BatchScratch
	off   []int32 // faultroute: node offsets; paths: pair -> path offsets
	poff  []int32 // paths: path -> node offsets
	nodes []int
	out   []byte

	// What a single-pair GET renders beyond the columns: the error of
	// the last failed pair (paths, faultroute) and the fault router's
	// strategy for the last routed pair and guarantee verdict
	// (faultroute).
	err      error
	strategy string
	within   bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// putBatchScratch returns sc to its pool, first dropping a body buffer
// grown past maxPooledBody.
func putBatchScratch(sc *batchScratch) {
	if sc.body.Cap() > maxPooledBody {
		sc.body = bytes.Buffer{}
	}
	batchScratchPool.Put(sc)
}

// handleBatch is the /batch endpoint.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &httpError{code: http.StatusMethodNotAllowed, msg: "/batch takes POST"})
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer putBatchScratch(sc)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBatchBody)); err != nil {
		writeErr(w, badRequest("reading body: %v", err))
		return
	}
	req := &sc.req
	if err := parseBatchBody(r.Header.Get("Content-Type"), sc.body.Bytes(), req); err != nil {
		writeErr(w, err)
		return
	}
	d := Dims{M: req.m, N: req.n}
	top, err := s.pool.Get(d)
	if err != nil {
		writeErr(w, badRequest("%v", err))
		return
	}
	if len(req.faults) > 0 && req.op != batchOpFaultRoute {
		writeErr(w, badRequest("faults only apply to op=faultroute"))
		return
	}
	for _, f := range req.faults {
		if !top.ValidNode(f) {
			writeErr(w, badRequest("fault %d out of range [0,%d)", f, top.Order()))
			return
		}
	}
	if err := checkDeadline(r); err != nil {
		writeErr(w, err)
		return
	}

	start := time.Now()
	cols, err := s.runBatch(top, req, sc)
	if err != nil {
		writeErr(w, err)
		return
	}
	sc.out = req.appendAnswer(sc.out[:0], &cols)
	s.metrics.BatchObserve(req.codec, batchOpNames[req.op], len(req.src), time.Since(start))
	writeBody(w, req.contentType(), "", sc.out)
}

func (r *batchRequest) contentType() string {
	if r.codec == "bin" {
		return ctBatchBin
	}
	return ctJSON
}

// appendAnswer appends the rendering of an answer to r in r's codec.
func (r *batchRequest) appendAnswer(out []byte, c *batchColumns) []byte {
	if r.codec == "bin" {
		return appendBatchBin(out, c)
	}
	return appendBatchJSON(out, c)
}

// EncodeBatchJSONRequest renders a /batch request body in the JSON
// codec. The faults column is written only when non-empty.
func EncodeBatchJSONRequest(op string, m, n int, faults, src, dst []int) []byte {
	out := make([]byte, 0, 48+12*(len(faults)+len(src)+len(dst)))
	out = append(out, `{"m":`...)
	out = strconv.AppendInt(out, int64(m), 10)
	out = append(out, `,"n":`...)
	out = strconv.AppendInt(out, int64(n), 10)
	out = append(out, `,"op":"`...)
	out = append(out, op...)
	out = append(out, '"')
	if len(faults) > 0 {
		out = appendJSONInts(out, "faults", faults)
	}
	out = appendJSONInts(out, "src", src)
	out = appendJSONInts(out, "dst", dst)
	return append(out, '}')
}

// EncodeBatchBinRequest renders a /batch request body in the binary
// codec: header frame, then faults, src and dst column frames.
func EncodeBatchBinRequest(op string, m, n int, faults, src, dst []int) ([]byte, error) {
	code, ok := batchOpCodes[op]
	if !ok {
		return nil, fmt.Errorf("hbserve: unknown batch op %q", op)
	}
	return appendBatchBinRequest(nil, code, m, n, faults, src, dst), nil
}

// appendBatchBinRequest appends EncodeBatchBinRequest's body for op
// code to out.
func appendBatchBinRequest(out []byte, code uint8, m, n int, faults, src, dst []int) []byte {
	le := binary.LittleEndian
	out = slices.Grow(out, 4+24+12+4*(len(faults)+len(src)+len(dst)))
	out = le.AppendUint32(out, 24)
	out = le.AppendUint32(out, batchBinMagic)
	out = le.AppendUint16(out, batchBinVersion)
	out = append(out, code, 0)
	out = le.AppendUint32(out, uint32(m))
	out = le.AppendUint32(out, uint32(n))
	out = le.AppendUint32(out, uint32(len(src)))
	out = le.AppendUint32(out, uint32(len(faults)))
	for _, col := range [][]int{faults, src, dst} {
		out = le.AppendUint32(out, uint32(4*len(col)))
		for _, v := range col {
			out = le.AppendUint32(out, uint32(v))
		}
	}
	return out
}

// request decoding ---------------------------------------------------

// parseBatchBody decodes an already-buffered /batch body, in whichever
// codec the Content-Type selects, into req; the binary codec reuses the
// storage of req's columns. The replica handler and the router's /batch
// forward share it, so a body is valid (or rejected) identically on both
// tiers. Every field of req is overwritten on success; on failure what
// req holds is not a request.
func parseBatchBody(ct string, body []byte, req *batchRequest) error {
	var err error
	switch {
	case ct == ctBatchBin:
		err = parseBatchBin(body, req)
	case ct == "" || ct == ctJSON || len(ct) > len(ctJSON) && ct[:len(ctJSON)] == ctJSON:
		err = parseBatchJSON(body, req)
	default:
		return &httpError{code: http.StatusUnsupportedMediaType,
			msg: fmt.Sprintf("unsupported Content-Type %q (want %s or %s)", ct, ctJSON, ctBatchBin)}
	}
	if err != nil {
		return err
	}
	if len(req.src) != len(req.dst) {
		return badRequest("src has %d entries, dst has %d", len(req.src), len(req.dst))
	}
	if len(req.src) > maxBatchPairs {
		return badRequest("%d pairs over the per-request cap %d", len(req.src), maxBatchPairs)
	}
	return nil
}

// parseBatchJSON decodes the JSON codec into fresh columns and
// overwrites every field of req. Only the binary codec, the one the
// router sends its replicas, reuses req's storage.
func parseBatchJSON(body []byte, req *batchRequest) error {
	var jr struct {
		M      *int   `json:"m"`
		N      *int   `json:"n"`
		Op     string `json:"op"`
		Faults []int  `json:"faults"`
		Src    []int  `json:"src"`
		Dst    []int  `json:"dst"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		return badRequest("bad JSON body: %v", err)
	}
	*req = batchRequest{codec: "json", m: 2, n: 3, faults: jr.Faults, src: jr.Src, dst: jr.Dst}
	if jr.M != nil {
		req.m = *jr.M
	}
	if jr.N != nil {
		req.n = *jr.N
	}
	opName := jr.Op
	if opName == "" {
		opName = "route"
	}
	op, ok := batchOpCodes[opName]
	if !ok {
		return badRequest("unknown op %q (want dist, route, paths or faultroute)", opName)
	}
	req.op = op
	return nil
}

// nextFrame pops one length-prefixed frame.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("truncated frame: %d bytes left, need a 4-byte length", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-4) {
		return nil, nil, fmt.Errorf("frame length %d exceeds remaining %d bytes", n, len(data)-4)
	}
	return data[4 : 4+n], data[4+n:], nil
}

// parseBatchBin decodes the binary framing (header, faults, src, dst)
// into req, reusing its column storage.
func parseBatchBin(body []byte, req *batchRequest) error {
	le := binary.LittleEndian
	hdr, rest, err := nextFrame(body)
	if err != nil {
		return badRequest("bad binary batch: %v", err)
	}
	if len(hdr) != 24 {
		return badRequest("bad binary batch: header frame is %d bytes, want 24", len(hdr))
	}
	if m := le.Uint32(hdr); m != batchBinMagic {
		return badRequest("bad binary batch: magic %#x, want %#x", m, batchBinMagic)
	}
	if v := le.Uint16(hdr[4:]); v != batchBinVersion {
		return badRequest("bad binary batch: version %d, want %d", v, batchBinVersion)
	}
	op := hdr[6]
	if _, ok := batchOpNames[op]; !ok {
		return badRequest("bad binary batch: unknown op code %d", op)
	}
	req.codec, req.op = "bin", op
	req.m, req.n = int(le.Uint32(hdr[8:])), int(le.Uint32(hdr[12:]))
	npairs := int(le.Uint32(hdr[16:]))
	nfaults := int(le.Uint32(hdr[20:]))
	if npairs > maxBatchPairs {
		return badRequest("%d pairs over the per-request cap %d", npairs, maxBatchPairs)
	}
	if req.faults, rest, err = readU32Column(rest, nfaults, "faults", req.faults); err != nil {
		return err
	}
	if req.src, rest, err = readU32Column(rest, npairs, "src", req.src); err != nil {
		return err
	}
	if req.dst, rest, err = readU32Column(rest, npairs, "dst", req.dst); err != nil {
		return err
	}
	if len(rest) != 0 {
		return badRequest("bad binary batch: %d trailing bytes after dst frame", len(rest))
	}
	return nil
}

// readU32Column pops one column frame of want values into vals's
// storage. vals comes back unchanged when the frame is rejected.
func readU32Column(data []byte, want int, name string, vals []int) ([]int, []byte, error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return vals, nil, badRequest("bad binary batch: %s frame: %v", name, err)
	}
	if len(payload) != 4*want {
		return vals, nil, badRequest("bad binary batch: %s frame is %d bytes, header promised %d values", name, len(payload), want)
	}
	vals = resized(vals, want)
	for i := range vals {
		vals[i] = int(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return vals, rest, nil
}

// computation --------------------------------------------------------

// batchColumns is the codec-independent answer of one batch: a status
// column plus op-dependent columns over one flat node arena.
type batchColumns struct {
	op     uint8
	m, n   int
	faults []int   // echoed for faultroute
	status []uint8 // per pair
	dist   []int32 // dist, route
	off    []int32 // route/faultroute: pair -> node offsets; paths: pair -> path offsets
	poff   []int32 // paths: path -> node offsets
	nodes  []int
}

// runBatch answers req with the per-op kernels. The returned columns
// alias sc, so they are read before sc goes back to its pool.
func (s *Server) runBatch(top *core.HyperButterfly, req *batchRequest, sc *batchScratch) (batchColumns, error) {
	cols := batchColumns{op: req.op, m: req.m, n: req.n, faults: req.faults}
	switch req.op {
	case batchOpDist, batchOpRoute:
		kop := core.BatchDist
		if req.op == batchOpRoute {
			kop = core.BatchRoute
		}
		if err := core.RouteBatch(top, kop, req.src, req.dst, s.batchWorkers, &sc.bs); err != nil {
			return cols, badRequest("%v", err)
		}
		cols.status, cols.dist, cols.off, cols.nodes = sc.bs.Status, sc.bs.Dist, sc.bs.Off, sc.bs.Nodes

	case batchOpFaultRoute:
		if err := faultRouteBatch(top, req, sc); err != nil {
			return cols, err
		}
		cols.status, cols.off, cols.nodes = sc.bs.Status, sc.off, sc.nodes

	case batchOpPaths:
		pathsBatch(top, req, sc)
		cols.status, cols.off, cols.poff, cols.nodes = sc.bs.Status, sc.off, sc.poff, sc.nodes
	}
	return cols, nil
}

// faultRouteBatch routes every pair around the request's fault set on a
// router built for this request alone. Every rung of the router's
// strategy ladder is computed from node labels, so building one costs
// O(|faults|), and an answer never depends on earlier requests or
// waits on another request's fault set.
func faultRouteBatch(top *core.HyperButterfly, req *batchRequest, sc *batchScratch) error {
	r, err := faultroute.New(top, req.faults)
	if err != nil {
		return badRequest("%v", err)
	}
	sc.bs.Status = sc.bs.Status[:0]
	sc.off = append(sc.off[:0], 0)
	sc.nodes = sc.nodes[:0]
	sc.err = nil
	for i := range req.src {
		u, v := req.src[i], req.dst[i]
		status := core.BatchOK
		switch {
		case !top.ValidNode(u) || !top.ValidNode(v):
			status = core.BatchBadNode
		default:
			path, err := r.Route(u, v)
			if err != nil {
				// A per-pair routing failure (faulty endpoint, fault set
				// disconnects the pair) is an answer, not a request error.
				status = core.BatchFailed
				sc.err = err
			} else {
				sc.nodes = append(sc.nodes, path...)
			}
		}
		sc.bs.Status = append(sc.bs.Status, status)
		sc.off = append(sc.off, int32(len(sc.nodes)))
	}
	sc.strategy, sc.within = r.LastStrategy(), r.WithinGuarantee()
	return nil
}

// pathsBatch bundles the Theorem 5 disjoint paths per pair into the
// two-level columnar layout (pair -> path offsets, path -> node
// offsets).
func pathsBatch(top *core.HyperButterfly, req *batchRequest, sc *batchScratch) {
	sc.bs.Status = sc.bs.Status[:0]
	sc.off = append(sc.off[:0], 0)
	sc.poff = append(sc.poff[:0], 0)
	sc.nodes = sc.nodes[:0]
	sc.err = nil
	npaths := 0
	for i := range req.src {
		u, v := req.src[i], req.dst[i]
		status := core.BatchOK
		switch {
		case !top.ValidNode(u) || !top.ValidNode(v):
			status = core.BatchBadNode
		default:
			paths, err := top.DisjointPaths(u, v)
			if err != nil {
				status = core.BatchFailed // equal endpoints
				sc.err = err
			} else {
				for _, p := range paths {
					sc.nodes = append(sc.nodes, p...)
					sc.poff = append(sc.poff, int32(len(sc.nodes)))
					npaths++
				}
			}
		}
		sc.bs.Status = append(sc.bs.Status, status)
		sc.off = append(sc.off, int32(npaths))
	}
}

// encoding -----------------------------------------------------------

// appendBatchJSON renders the columns by hand (strconv appends into one
// pre-sized buffer): at thousands of pairs per request, reflective
// json.Marshal of the arrays would dominate the batch compute.
func appendBatchJSON(out []byte, c *batchColumns) []byte {
	out = slices.Grow(out, 64+12*len(c.status)*3+12*len(c.nodes))
	out = append(out, `{"m":`...)
	out = strconv.AppendInt(out, int64(c.m), 10)
	out = append(out, `,"n":`...)
	out = strconv.AppendInt(out, int64(c.n), 10)
	out = append(out, `,"op":"`...)
	out = append(out, batchOpNames[c.op]...)
	out = append(out, `","count":`...)
	out = strconv.AppendInt(out, int64(len(c.status)), 10)
	if c.op == batchOpFaultRoute {
		out = appendJSONInts(out, "faults", c.faults)
	}
	out = appendJSONBytes(out, "status", c.status)
	switch c.op {
	case batchOpDist:
		out = appendJSONInt32s(out, "dist", c.dist)
	case batchOpRoute:
		out = appendJSONInt32s(out, "dist", c.dist)
		out = appendJSONInt32s(out, "off", c.off)
		out = appendJSONInts(out, "nodes", c.nodes)
	case batchOpFaultRoute:
		out = appendJSONInt32s(out, "off", c.off)
		out = appendJSONInts(out, "nodes", c.nodes)
	case batchOpPaths:
		out = appendJSONInt32s(out, "pair_off", c.off)
		out = appendJSONInt32s(out, "path_off", c.poff)
		out = appendJSONInts(out, "nodes", c.nodes)
	}
	return append(out, "}\n"...)
}

func appendJSONBytes(out []byte, name string, vals []uint8) []byte {
	out = appendJSONName(out, name)
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(v), 10)
	}
	return append(out, ']')
}

func appendJSONInt32s(out []byte, name string, vals []int32) []byte {
	out = appendJSONName(out, name)
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(v), 10)
	}
	return append(out, ']')
}

func appendJSONInts(out []byte, name string, vals []int) []byte {
	out = appendJSONName(out, name)
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(v), 10)
	}
	return append(out, ']')
}

func appendJSONName(out []byte, name string) []byte {
	out = append(out, ',', '"')
	out = append(out, name...)
	return append(out, '"', ':', '[')
}

// appendBatchBin renders the response framing: a header frame (magic,
// version, op, pair count, total path count) followed by one frame per
// column in the README-documented order.
func appendBatchBin(out []byte, c *batchColumns) []byte {
	le := binary.LittleEndian
	npairs := len(c.status)
	totalPaths := 0
	if c.op == batchOpPaths {
		totalPaths = len(c.poff) - 1
	}
	size := 4 + 16 + (4 + npairs) + (4 + 4*len(c.dist)) + (4 + 4*len(c.off)) + (4 + 4*len(c.poff)) + (4 + 4*len(c.nodes))
	out = slices.Grow(out, size)

	out = le.AppendUint32(out, 16) // header frame
	out = le.AppendUint32(out, batchBinMagic)
	out = le.AppendUint16(out, batchBinVersion)
	out = append(out, c.op, 0)
	out = le.AppendUint32(out, uint32(npairs))
	out = le.AppendUint32(out, uint32(totalPaths))

	out = le.AppendUint32(out, uint32(npairs)) // status frame
	out = append(out, c.status...)

	if c.op == batchOpDist || c.op == batchOpRoute {
		out = appendBinInt32Frame(out, c.dist)
	}
	switch c.op {
	case batchOpRoute, batchOpFaultRoute:
		out = appendBinInt32Frame(out, c.off)
		out = appendBinIntFrame(out, c.nodes)
	case batchOpPaths:
		out = appendBinInt32Frame(out, c.off)
		out = appendBinInt32Frame(out, c.poff)
		out = appendBinIntFrame(out, c.nodes)
	}
	return out
}

func appendBinInt32Frame(out []byte, vals []int32) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(4*len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

func appendBinIntFrame(out []byte, vals []int) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(4*len(vals)))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}
