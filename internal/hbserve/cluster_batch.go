package hbserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Scatter-gather batch routing. Every /batch body that reaches the
// router is decoded (both codecs), its pairs are partitioned by their
// (m,n,u,v) ring owner sets, and one sub-batch per chosen replica is
// fanned out concurrently over the router's pooled replica connections
// (cluster_conn.go) — so a single client batch is answered by the whole
// fleet instead of serializing on one replica.
//
// Pair placement uses the replicated owner set: each pair's key maps
// to its first R distinct alive replicas clockwise (hashRing.owners,
// read from the batch membership's hashRing.ownerTable), and the pair
// goes to the least-loaded member by in-flight pair count —
// power-of-two-choices when R is the default 2. A sub-batch runs the
// router's one attempt loop (Router.try), so a replica killed mid-batch
// loses zero pairs. Sub-requests are always encoded in the binary
// codec: it is the cheaper frame to build and parse.
//
// The merge splices frames. Each replica's answer stays as the bytes it
// sent, in a buffer of the scatter's scratch; splitBatchBinResponse
// validates it and returns views of its status, dist, offset and node
// frames. The merged binary response has a size known from those
// frames, so appendSpliced writes it in place in one pass over the
// pairs in their original order: per pair a status byte, the 4 dist
// bytes, a rebased offset and a copy of its node bytes. The result is
// byte-identical to one replica answering the whole body. A JSON
// client's answer is that merged binary decoded once and rendered by
// appendBatchJSON, so both codecs share the one merge.
//
// forwardBatch takes the scatter's pooled scratch before it decodes and
// decodes the client body into the scratch's batchRequest, so a warm
// router decodes a binary batch without allocating. Ownership rule: a
// decoded request aliases its pooled scratch, and nothing keeps it once
// the handler returns — partition copies its columns into the sub-batch
// bodies and the merge's faults echo is rendered before the scratch
// goes back to its pool.

// forwardBatch validates and routes one buffered /batch POST. A body
// whose dims cannot even be peeked (truncated binary header, JSON with
// missing or negative m/n, a Content-Type whose body doesn't parse)
// answers 400 at the router — garbage is rejected at the edge, not
// forwarded into the fleet.
func (rt *Router) forwardBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	gs := rt.scatterPool.Get().(*scatterScratch)
	defer rt.scatterPool.Put(gs)
	if err := gs.decode(r.Header.Get("Content-Type"), body); err != nil {
		writeErr(w, err)
		return
	}
	rt.scatterBatch(w, r, gs)
}

// decode checks that a client body's dims can be peeked and decodes
// the body into gs.req.
func (gs *scatterScratch) decode(ct string, body []byte) error {
	if _, _, ok := peekBatchDims(ct, body); !ok {
		return badRequest("unreadable batch dims (want explicit non-negative m and n)")
	}
	return parseBatchBody(ct, body, &gs.req)
}

// subBatch is one replica's slice of a scattered request.
type subBatch struct {
	replica int // chosen owner (first attempt target)
	pairs   int
	body    []byte

	answer   *bytes.Buffer // the answering replica's bytes, in the scatter's scratch
	frames   batchFrames   // views of answer once validated
	answered int           // replica that actually answered
	err      error
}

// scatterScratch is the pooled working set of one scattered batch: the
// decoded client request, the partition's per-pair and per-replica
// columns, the replicas' answers and their frames, and the merged
// response. Reusing it keeps the scatter path from allocating per pair.
type scatterScratch struct {
	req batchRequest // the client's batch, decoded into this scratch

	alive    []bool  // replica health, read once per batch
	count    []int32 // pairs assigned to each replica so far
	assign   []int16 // pair -> chosen replica
	localIdx []int32 // pair -> its index inside that replica's sub-batch
	start    []int32 // replica -> first slot of its pairs in src and dst
	src, dst []int   // sub-batch columns, one replica's pairs after another

	// tab is hashRing.ownerTable for membership tabAlive at owner-set
	// size tabR, rebuilt only when a batch's snapshot or R differs.
	tab      []int
	tabWidth int
	tabAlive []bool
	tabR     int

	batches []subBatch      // this scatter's sub-batches
	bodies  [][]byte        // replica -> its encoded sub-batch body
	answers []*bytes.Buffer // replica -> the answer to its sub-batch
	frames  []batchFrames   // replica -> views of that answer; zero when it has no pairs
	bin     []byte          // the merged binary response
	merged  batchColumns    // the merged response decoded, for a JSON client
	out     []byte          // the merged JSON response
}

// errNoReplica reports a batch with no live replica to place it on.
var errNoReplica = errors.New("no live replica")

// scatterBatch partitions gs.req, fans out, gathers, merges, and
// answers.
func (rt *Router) scatterBatch(w http.ResponseWriter, r *http.Request, gs *scatterScratch) {
	req := &gs.req
	subs, err := rt.partition(req, gs)
	if errors.Is(err, errNoReplica) {
		rt.noReplica.Add(1)
		w.Header().Set("Retry-After", "1")
		err = rt.noLiveReplica()
	}
	if err != nil {
		writeErr(w, err)
		return
	}

	// Fan out concurrently; gather everything before answering.
	gs.answers = resized(gs.answers, len(rt.replicas))
	var wg sync.WaitGroup
	for i := range subs {
		sb := &subs[i]
		if gs.answers[sb.replica] == nil {
			gs.answers[sb.replica] = new(bytes.Buffer)
		}
		sb.answer = gs.answers[sb.replica]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.sendSubBatch(r, req.op, sb)
		}()
	}
	wg.Wait()
	rt.subPairs.Add(uint64(len(req.src)))

	// The merge reads every replica's frames, so a replica with no
	// sub-batch in this scatter must not keep views of an older one.
	gs.frames = resized(gs.frames, len(rt.replicas))
	clear(gs.frames)
	var answered []string
	for _, sb := range subs {
		if sb.err != nil {
			// One lost sub-batch fails the whole request: a partial
			// merge would silently drop pairs, which is exactly what
			// the retry machinery exists to prevent.
			if he, ok := sb.err.(*httpError); ok && he.code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, sb.err)
			return
		}
		gs.frames[sb.replica] = sb.frames
		answered = append(answered, rt.replicas[sb.answered])
	}

	out, err := gs.mergeAnswer(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	h := w.Header()
	h.Set("X-Scatter", strconv.Itoa(len(subs)))
	h.Set("X-Replica", strings.Join(answered, ","))
	writeBody(w, req.contentType(), "", out)
}

// mergeAnswer renders req's response in its codec from the sub-batch
// frames in gs.frames, placed by gs.assign and gs.localIdx. The result
// aliases gs.
func (gs *scatterScratch) mergeAnswer(req *batchRequest) ([]byte, error) {
	gs.bin = appendSpliced(gs.bin[:0], req, gs.frames, gs.assign, gs.localIdx)
	if req.codec == "bin" {
		return gs.bin, nil
	}
	if err := decodeBatchBinResponse(gs.bin, req.op, len(req.src), &gs.merged); err != nil {
		return nil, &httpError{code: http.StatusInternalServerError, msg: fmt.Sprintf("merged batch response: %v", err)}
	}
	gs.merged.m, gs.merged.n, gs.merged.faults = req.m, req.n, req.faults
	gs.out = appendBatchJSON(gs.out[:0], &gs.merged)
	return gs.out, nil
}

// partition places every pair of req on a replica and encodes one
// binary sub-batch per chosen replica, leaving the placement in
// gs.assign and gs.localIdx for the merge. Each pair goes to the
// least-loaded member of its owner set, counting both globally
// in-flight pairs and pairs already assigned in this batch so one
// scatter cannot dogpile an owner. Replica health is read once, so the
// whole batch is placed against one membership. The sub-batches and
// their bodies live in gs until its next partition.
func (rt *Router) partition(req *batchRequest, gs *scatterScratch) ([]subBatch, error) {
	n := len(rt.replicas)
	pairs := len(req.src)
	gs.alive = resized(gs.alive, n)
	for i := range gs.alive {
		gs.alive[i] = rt.health.Healthy(i)
	}
	if !slices.Contains(gs.alive, true) {
		return nil, errNoReplica
	}
	if gs.tabR != rt.replication || !slices.Equal(gs.tabAlive, gs.alive) {
		gs.tab, gs.tabWidth = rt.ring.ownerTable(rt.replication, gs.alive, gs.tab)
		gs.tabAlive, gs.tabR = append(gs.tabAlive[:0], gs.alive...), rt.replication
	}
	tab, w := gs.tab, gs.tabWidth

	key := newKeyHasher(Dims{M: req.m, N: req.n})
	count := resized(gs.count, n)
	clear(count)
	assign := resized(gs.assign, pairs)
	localIdx := resized(gs.localIdx, pairs)
	for i := 0; i < pairs; i++ {
		owners := tab[rt.ring.first(key.key(req.src[i], req.dst[i]))*w:][:w]
		best := owners[0]
		bestLoad := rt.inflight[best].Load() + int64(count[best])
		for _, o := range owners[1:] {
			if l := rt.inflight[o].Load() + int64(count[o]); l < bestLoad {
				best, bestLoad = o, l
			}
		}
		assign[i] = int16(best)
		localIdx[i] = count[best]
		count[best]++
	}
	gs.count, gs.assign, gs.localIdx = count, assign, localIdx

	// One sub-batch per chosen replica, its pairs contiguous in the src
	// and dst columns. An empty batch still goes to one replica, the
	// owner of its dims, which validates the dims and faults as it would
	// for any batch.
	subs := gs.batches[:0]
	if pairs == 0 {
		subs = append(subs, subBatch{replica: rt.ring.owners(key.key(0, 0), 1, gs.alive, nil)[0]})
	}
	start := resized(gs.start, n)
	at := int32(0)
	for rep, c := range count {
		start[rep] = at
		at += c
		if c > 0 {
			subs = append(subs, subBatch{replica: rep, pairs: int(c)})
		}
	}
	src := resized(gs.src, pairs)
	dst := resized(gs.dst, pairs)
	for i := 0; i < pairs; i++ {
		k := start[assign[i]] + localIdx[i]
		src[k], dst[k] = req.src[i], req.dst[i]
	}
	gs.start, gs.src, gs.dst, gs.batches = start, src, dst, subs

	gs.bodies = resized(gs.bodies, n)
	for i := range subs {
		sb := &subs[i]
		lo, hi := start[sb.replica], start[sb.replica]+int32(sb.pairs)
		sb.body = appendBatchBinRequest(gs.bodies[sb.replica][:0], req.op, req.m, req.n, req.faults, src[lo:hi], dst[lo:hi])
		gs.bodies[sb.replica] = sb.body
	}
	return subs, nil
}

// sendSubBatch posts one sub-batch through the router's attempt loop:
// first to its chosen owner, then to the least-loaded alive replica not
// yet tried. On success the answer's frames land in sb.frames; a 4xx
// lands in sb.err.
func (rt *Router) sendSubBatch(r *http.Request, op uint8, sb *subBatch) {
	next := func(tried []bool) int {
		if !tried[sb.replica] {
			return sb.replica
		}
		return rt.nextAliveOwner(tried)
	}
	sent := 0
	answered := rt.try(int64(sb.pairs), next, func(i int) bool {
		if sent++; sent == 1 {
			rt.subFanout.Add(1)
		} else {
			rt.subRetries.Add(1)
		}
		retry, err := rt.postSubBatch(r, i, op, sb)
		switch {
		case err == nil:
			sb.answered = i
			rt.health.replicas[i].forwarded.Add(1)
		case !retry:
			sb.err = err
		}
		return retry
	})
	if !answered {
		sb.err = rt.noLiveReplica()
	}
}

// nextAliveOwner picks the least-loaded alive replica not yet tried,
// or -1. After the pair's own owners failed this is the clockwise
// spill generalised to load order — the batch equivalent of walking
// past the owner set.
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

// postSubBatch performs one binary-codec sub-request against replica i
// into sb.answer and validates the answer into sb.frames. retry reports
// whether a failure is the replica's fault (transport error, 5xx, a
// 2xx that is not a valid answer to the sub-batch) rather than the
// request's (4xx).
func (rt *Router) postSubBatch(r *http.Request, i int, op uint8, sb *subBatch) (retry bool, err error) {
	resp, err := rt.health.replicas[i].conns.roundTrip(r.Context(), http.MethodPost, "/batch", ctBatchBin, sb.body, rt.timeout, sb.answer)
	if err != nil {
		return true, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode >= 500, &httpError{code: resp.StatusCode, msg: fmt.Sprintf("replica %s: %s", rt.replicas[i], bytes.TrimSpace(sb.answer.Bytes()))}
	}
	if sb.frames, err = splitBatchBinResponse(sb.answer.Bytes(), op, sb.pairs); err != nil {
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
// number of entries it indexes, so appendSpliced can slice by any of
// its entries.
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

// appendSpliced appends the binary response to req whose pair i is
// entry localIdx[i] of the answer byRep[assign[i]], in one pass over
// the pairs. Offsets are rebased (each answer's are prefix sums into
// its own node arena), so the result is byte-identical to one replica
// answering the whole batch. Every entry of byRep is either a
// splitBatchBinResponse result or zero.
func appendSpliced(out []byte, req *batchRequest, byRep []batchFrames, assign []int16, localIdx []int32) []byte {
	le := binary.LittleEndian
	op, pairs := req.op, len(req.src)
	paths, nodeBytes := 0, 0
	for i := range byRep {
		paths += byRep[i].paths
		nodeBytes += len(byRep[i].nodes)
	}
	hasDist := op == batchOpDist || op == batchOpRoute
	size := 4 + 16 + 4 + pairs
	if hasDist {
		size += 4 + 4*pairs
	}
	if op != batchOpDist {
		size += 4 + 4*(pairs+1) + 4 + nodeBytes
	}
	if op == batchOpPaths {
		size += 4 + 4*(paths+1)
	}
	at := len(out)
	out = slices.Grow(out, size)[:at+size]

	// frame writes a frame's length prefix and returns its payload.
	frame := func(n int) []byte {
		le.PutUint32(out[at:], uint32(n))
		at += 4 + n
		return out[at-n : at]
	}
	hdr := frame(16)
	le.PutUint32(hdr, batchBinMagic)
	le.PutUint16(hdr[4:], batchBinVersion)
	hdr[6], hdr[7] = op, 0
	le.PutUint32(hdr[8:], uint32(pairs))
	le.PutUint32(hdr[12:], uint32(paths))
	status := frame(pairs)
	var dist, off, poff, nodes []byte
	if hasDist {
		dist = frame(4 * pairs)
	}
	if op != batchOpDist {
		off = frame(4 * (pairs + 1))
		le.PutUint32(off, 0)
	}
	if op == batchOpPaths {
		poff = frame(4 * (paths + 1))
		le.PutUint32(poff, 0)
	}
	if op != batchOpDist {
		nodes = frame(nodeBytes)
	}

	np, nn := 0, 0 // paths and node bytes written so far
	for i := 0; i < pairs; i++ {
		c, j := &byRep[assign[i]], int(localIdx[i])
		status[i] = c.status[j]
		if hasDist {
			le.PutUint32(dist[4*i:], le.Uint32(c.dist[4*j:]))
		}
		switch op {
		case batchOpRoute, batchOpFaultRoute:
			lo, hi := le.Uint32(c.off[4*j:]), le.Uint32(c.off[4*j+4:])
			nn += copy(nodes[nn:], c.nodes[4*lo:4*hi])
			le.PutUint32(off[4*i+4:], uint32(nn/4))
		case batchOpPaths:
			plo, phi := int(le.Uint32(c.off[4*j:])), int(le.Uint32(c.off[4*j+4:]))
			base := int(le.Uint32(c.poff[4*plo:]))
			for q := plo + 1; q <= phi; q++ {
				np++
				le.PutUint32(poff[4*np:], uint32(nn/4+int(le.Uint32(c.poff[4*q:]))-base))
			}
			nn += copy(nodes[nn:], c.nodes[4*base:4*int(le.Uint32(c.poff[4*phi:]))])
			le.PutUint32(off[4*i+4:], uint32(np))
		}
	}
	return out
}
