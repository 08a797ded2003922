package hbserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"slices"
)

// Whole-batch forwarding. HB is a Cayley graph: any replica answers
// any pair from its labels alone, and no replica keeps per-pair state
// for /batch, so placing pairs by their ring keys would gain no
// locality. The router therefore sends every /batch body whole, in one
// request, to one replica: the least-loaded alive member, by in-flight
// pairs, of the owner set of the batch's dims key, shardKey(dims, 0,
// 0). The request runs the router's one attempt loop (Router.try), so
// a transport error, a 5xx or a 2xx that is not a valid answer to the
// batch fails over to the least-loaded alive replica not yet tried,
// and a replica killed mid-batch loses zero pairs.
//
// The router still checks every body, so garbage is refused with 400
// at the edge. The replica always receives the binary codec: a binary
// client's body passes the codec's framing step (splitBatchBin), which
// accepts exactly the bodies the full decoder accepts, and is forwarded
// as the bytes it checked; a JSON client's body is decoded and its
// columns encoded once. Every answer is validated by
// splitBatchBinResponse against the batch's op and pair count before
// any byte of it reaches the client. A binary client gets the
// replica's bytes as they came; a JSON client gets them decoded once
// and rendered by appendBatchJSON. Either answer is byte-identical to
// one replica answering the client's body itself.
//
// forwardBatch takes its pooled batchForward before it checks the
// client body, so a warm router forwards a binary batch without
// per-pair work or garbage. Ownership rule: a decoded request aliases
// its pooled scratch, and nothing keeps it once the handler returns.

// batchForward is the pooled working set of one forwarded batch.
type batchForward struct {
	shape  batchBinFrames // the batch's op, dims and pair count; no frames
	json   bool           // the client sent JSON, decoded into req
	req    batchRequest   // a JSON client's batch
	alive  []bool         // replica health, read once per batch
	owners []int          // the owner set of the batch's dims key
	bin    []byte         // a JSON client's batch in the binary codec
	answer bytes.Buffer   // the answering replica's bytes
	cols   batchColumns   // the answer decoded, for a JSON client
	out    []byte         // the JSON answer
}

// forwardBatch validates one buffered /batch POST, forwards it whole
// and relays the checked answer. A body its codec refuses (a binary
// body whose framing is off, JSON with missing or negative m/n or that
// doesn't parse) answers 400 at the router — garbage is rejected at the
// edge, not forwarded into the fleet.
func (rt *Router) forwardBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	bf := rt.batchPool.Get().(*batchForward)
	defer rt.batchPool.Put(bf)
	if err := bf.decode(r.Header.Get("Content-Type"), body); err != nil {
		writeErr(w, err)
		return
	}
	req, op, pairs := &bf.req, bf.shape.op, bf.shape.pairs
	if bf.json {
		bf.bin = appendBatchBinRequest(bf.bin[:0], req.op, req.m, req.n, req.faults, req.src, req.dst)
		body = bf.bin
	}

	first := rt.batchOwner(bf)
	next := func(tried []bool) int {
		if first >= 0 && !tried[first] {
			return first
		}
		return rt.nextAliveOwner(tried)
	}
	var err error
	replica, sent := -1, 0
	answered := rt.try(int64(pairs), next, func(i int) bool {
		if sent++; sent == 1 {
			rt.subFanout.Add(1)
			rt.subPairs.Add(uint64(pairs))
		} else {
			rt.subRetries.Add(1)
		}
		retry, e := rt.postBatch(r, i, op, pairs, body, &bf.answer)
		switch {
		case e == nil:
			replica = i
			rt.health.replicas[i].forwarded.Add(1)
		case !retry:
			err = e
		}
		return retry
	})
	if !answered {
		rt.noReplica.Add(1)
		w.Header().Set("Retry-After", "1")
		err = rt.noLiveReplica()
	}
	if err != nil {
		writeErr(w, err)
		return
	}

	out, ct := bf.answer.Bytes(), ctBatchBin
	if bf.json {
		if err := decodeBatchBinResponse(out, op, pairs, &bf.cols); err != nil {
			writeErr(w, err)
			return
		}
		bf.cols.m, bf.cols.n, bf.cols.faults = req.m, req.n, req.faults
		bf.out = appendBatchJSON(bf.out[:0], &bf.cols)
		out, ct = bf.out, ctJSON
	}
	w.Header().Set("X-Replica", rt.replicas[replica])
	writeBody(w, ct, "", out)
}

// decode checks a client body and records its shape in bf: a binary
// body by its framing step alone, a JSON body, whose dims must first
// be peekable, decoded into bf.req.
func (bf *batchForward) decode(ct string, body []byte) error {
	if bf.json = ct != ctBatchBin; !bf.json {
		f, err := splitBatchBin(body)
		if err != nil {
			return err
		}
		// Only the header fields: the frames would pin the body.
		bf.shape = batchBinFrames{op: f.op, m: f.m, n: f.n, pairs: f.pairs}
		return nil
	}
	if _, _, ok := peekBatchDims(ct, body); !ok {
		return badRequest("unreadable batch dims (want explicit non-negative m and n)")
	}
	req := &bf.req
	if err := parseBatchBody(ct, body, req); err != nil {
		return err
	}
	bf.shape = batchBinFrames{op: req.op, m: req.m, n: req.n, pairs: len(req.src)}
	return nil
}

// batchOwner picks the replica a batch is sent to first: the
// least-loaded alive member, by in-flight pairs, of the owner set of
// its dims key, or -1 when no replica is alive.
func (rt *Router) batchOwner(bf *batchForward) int {
	bf.alive = resized(bf.alive, len(rt.replicas))
	for i := range bf.alive {
		bf.alive[i] = rt.health.Healthy(i)
	}
	bf.owners = rt.ring.owners(shardKey(Dims{M: bf.shape.m, N: bf.shape.n}, 0, 0), rt.replication, bf.alive, bf.owners)
	best := -1
	var bestLoad int64
	for _, o := range bf.owners {
		if l := rt.inflight[o].Load(); best < 0 || l < bestLoad {
			best, bestLoad = o, l
		}
	}
	return best
}

// nextAliveOwner picks the least-loaded alive replica not yet tried,
// or -1: where a batch goes once its first choice failed.
func (rt *Router) nextAliveOwner(tried []bool) int {
	best := -1
	var bestLoad int64
	for i := range rt.replicas {
		if tried[i] || !rt.health.Healthy(i) {
			continue
		}
		if l := rt.inflight[i].Load(); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// postBatch performs one binary-codec /batch request against replica i
// into answer and validates the answer as one to a batch of pairs pairs
// for op. retry reports
// whether a failure is the replica's fault (transport error, 5xx, a
// 2xx that is not a valid answer to the batch) rather than the
// request's (4xx).
func (rt *Router) postBatch(r *http.Request, i int, op uint8, pairs int, body []byte, answer *bytes.Buffer) (retry bool, err error) {
	resp, err := rt.health.replicas[i].conns.roundTrip(r.Context(), http.MethodPost, "/batch", ctBatchBin, body, rt.timeout, answer)
	if err != nil {
		return true, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode >= 500, &httpError{code: resp.StatusCode, msg: fmt.Sprintf("replica %s: %s", rt.replicas[i], bytes.TrimSpace(answer.Bytes()))}
	}
	if _, err := splitBatchBinResponse(answer.Bytes(), op, pairs); err != nil {
		// A 2xx that is not a valid answer is a corrupt replica;
		// retrying elsewhere is safe and the failure feeds ejection.
		return true, fmt.Errorf("replica %s: %v", rt.replicas[i], err)
	}
	return false, nil
}

// batchFrames is a validated binary /batch response split into its
// frames. The views alias the response bytes.
type batchFrames struct {
	paths  int    // paths: the total path count
	status []byte // one byte per pair
	dist   []byte // dist, route: one LE int32 per pair
	off    []byte // LE int32 offsets, pairs+1: route, faultroute into nodes; paths into poff
	poff   []byte // paths: LE int32 offsets into nodes, paths+1
	nodes  []byte // one LE int32 per node
}

// splitBatchBinResponse validates a binary /batch response to a batch
// of pairs pairs for op and returns views of its frames. Every offset
// column must start at 0, never decrease, and end at exactly the
// number of entries it indexes, so any two of its entries bound a
// valid slice of what it indexes.
func splitBatchBinResponse(body []byte, op uint8, pairs int) (batchFrames, error) {
	var f batchFrames
	le := binary.LittleEndian
	hdr, rest, err := nextFrame(body)
	if err != nil {
		return f, fmt.Errorf("bad batch response: %v", err)
	}
	if len(hdr) != 16 {
		return f, fmt.Errorf("bad batch response: header frame is %d bytes, want 16", len(hdr))
	}
	if m := le.Uint32(hdr); m != batchBinMagic {
		return f, fmt.Errorf("bad batch response: magic %#x", m)
	}
	if v := le.Uint16(hdr[4:]); v != batchBinVersion {
		return f, fmt.Errorf("bad batch response: version %d", v)
	}
	if hdr[6] != op {
		return f, fmt.Errorf("bad batch response: op %d, want %d", hdr[6], op)
	}
	if got := int(le.Uint32(hdr[8:])); got != pairs {
		return f, fmt.Errorf("bad batch response: %d pairs answered, sent %d", got, pairs)
	}
	if f.status, rest, err = sizedFrame(rest, pairs, "status"); err != nil {
		return f, err
	}
	if op == batchOpDist || op == batchOpRoute {
		if f.dist, rest, err = sizedFrame(rest, 4*pairs, "dist"); err != nil {
			return f, err
		}
	}
	if op != batchOpDist {
		if f.off, rest, err = sizedFrame(rest, 4*(pairs+1), "off"); err != nil {
			return f, err
		}
	}
	if op == batchOpPaths {
		f.paths = int(le.Uint32(hdr[12:]))
		if f.poff, rest, err = sizedFrame(rest, 4*(f.paths+1), "path_off"); err != nil {
			return f, err
		}
	}
	if op != batchOpDist {
		if f.nodes, rest, err = nextFrame(rest); err != nil || len(f.nodes)%4 != 0 {
			return f, fmt.Errorf("bad batch response: nodes frame (%d bytes, err %v)", len(f.nodes), err)
		}
	}
	if len(rest) != 0 {
		return f, fmt.Errorf("bad batch response: %d trailing bytes", len(rest))
	}
	switch op {
	case batchOpRoute, batchOpFaultRoute:
		err = checkOffsets(f.off, len(f.nodes)/4, "off")
	case batchOpPaths:
		if err = checkOffsets(f.off, f.paths, "off"); err == nil {
			err = checkOffsets(f.poff, len(f.nodes)/4, "path_off")
		}
	}
	return f, err
}

// sizedFrame pops one frame of exactly size bytes.
func sizedFrame(data []byte, size int, name string) (payload, rest []byte, err error) {
	payload, rest, err = nextFrame(data)
	if err != nil {
		return nil, nil, fmt.Errorf("bad batch response: %s frame: %v", name, err)
	}
	if len(payload) != size {
		return nil, nil, fmt.Errorf("bad batch response: %s frame is %d bytes, want %d", name, len(payload), size)
	}
	return payload, rest, nil
}

// checkOffsets checks that an offset column starts at 0, never
// decreases and ends at end.
func checkOffsets(col []byte, end int, name string) error {
	le := binary.LittleEndian
	prev := uint32(0)
	for k := 0; k < len(col); k += 4 {
		o := le.Uint32(col[k:])
		if o < prev || k == 0 && o != 0 {
			return fmt.Errorf("bad batch response: %s column is not a prefix sum from 0 (entry %d is %d)", name, k/4, o)
		}
		prev = o
	}
	if uint64(prev) != uint64(end) {
		return fmt.Errorf("bad batch response: %s column ends at %d, want %d", name, prev, end)
	}
	return nil
}

// decodeBatchBinResponse parses a binary /batch response into cols,
// reusing their storage and copying every value out of body.
func decodeBatchBinResponse(body []byte, op uint8, pairs int, cols *batchColumns) error {
	f, err := splitBatchBinResponse(body, op, pairs)
	if err != nil {
		return err
	}
	cols.op = op
	cols.status = append(cols.status[:0], f.status...)
	cols.dist = appendInt32s(cols.dist[:0], f.dist)
	cols.off = appendInt32s(cols.off[:0], f.off)
	cols.poff = appendInt32s(cols.poff[:0], f.poff)
	cols.nodes = resized(cols.nodes, len(f.nodes)/4)
	for i := range cols.nodes {
		cols.nodes[i] = int(int32(binary.LittleEndian.Uint32(f.nodes[4*i:])))
	}
	return nil
}

// appendInt32s appends the LE int32 values of frame to vals.
func appendInt32s(vals []int32, frame []byte) []int32 {
	for k := 0; k < len(frame); k += 4 {
		vals = append(vals, int32(binary.LittleEndian.Uint32(frame[k:])))
	}
	return vals
}

// resized returns s with length n, reusing its storage when it can.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
