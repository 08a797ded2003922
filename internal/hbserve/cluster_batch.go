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
// fleet instead of serializing on one replica. The sub-responses are re-merged into a single
// response in the original pair order and re-encoded in the client's
// codec, byte-exact with what one replica would have produced for the
// whole body.
//
// Pair placement uses the replicated owner set: each pair's key maps
// to its first R distinct alive replicas clockwise (hashRing.owners,
// read from the batch membership's hashRing.ownerTable), and the pair
// goes to the least-loaded member by in-flight pair count —
// power-of-two-choices when R is the default 2. A sub-batch runs the
// router's one attempt loop (Router.try), so a replica killed mid-batch
// loses zero pairs. Sub-requests are always encoded in the binary
// codec: it is the cheaper frame to build and parse, and the merge
// re-encodes the client's codec at the end.

// forwardBatch validates and routes one buffered /batch POST. A body
// whose dims cannot even be peeked (truncated binary header, JSON with
// missing or negative m/n, a Content-Type whose body doesn't parse)
// answers 400 at the router — garbage is rejected at the edge, not
// forwarded into the fleet.
func (rt *Router) forwardBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	ct := r.Header.Get("Content-Type")
	if _, _, ok := peekBatchDims(ct, body); !ok {
		writeErr(w, badRequest("unreadable batch dims (want explicit non-negative m and n)"))
		return
	}
	req, err := parseBatchBody(ct, body)
	if err != nil {
		writeErr(w, err)
		return
	}
	rt.scatterBatch(w, r, req)
}

// subBatch is one replica's slice of a scattered request.
type subBatch struct {
	replica int // chosen owner (first attempt target)
	pairs   int
	body    []byte

	cols     *batchColumns // decoded answer, in the scatter's scratch
	answered int           // replica that actually answered
	err      error
}

// scatterScratch is the pooled working set of one scattered batch: the
// partition's per-pair and per-replica columns, the decoded
// sub-responses, the merged columns and the encoded response. Reusing
// it keeps the scatter path from allocating per pair.
type scatterScratch struct {
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

	batches []subBatch     // this scatter's sub-batches
	bodies  [][]byte       // replica -> its encoded sub-batch body
	subs    []batchColumns // replica -> its decoded sub-response
	merged  batchColumns
	out     []byte
}

// errNoReplica reports a batch with no live replica to place it on.
var errNoReplica = errors.New("no live replica")

// scatterBatch partitions, fans out, gathers, merges, and answers.
func (rt *Router) scatterBatch(w http.ResponseWriter, r *http.Request, req *batchRequest) {
	gs := rt.scatterPool.Get().(*scatterScratch)
	defer rt.scatterPool.Put(gs)
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
	gs.subs = resized(gs.subs, len(rt.replicas))
	var wg sync.WaitGroup
	for i := range subs {
		sb := &subs[i]
		sb.cols = &gs.subs[sb.replica]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.sendSubBatch(r, req.op, sb)
		}()
	}
	wg.Wait()
	rt.subPairs.Add(uint64(len(req.src)))

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
		answered = append(answered, rt.replicas[sb.answered])
	}

	mergeSubBatches(req, gs.subs, gs.assign, gs.localIdx, &gs.merged)
	gs.out = req.appendAnswer(gs.out[:0], &gs.merged)
	h := w.Header()
	h.Set("X-Scatter", strconv.Itoa(len(subs)))
	h.Set("X-Replica", strings.Join(answered, ","))
	writeBody(w, req.contentType(), "", gs.out)
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
// yet tried. On success the decoded columns land in sb.cols; a 4xx
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
// and decodes the answer into sb.cols. retry reports whether a failure
// is the replica's fault (transport error, 5xx, an undecodable 2xx)
// rather than the request's (4xx).
func (rt *Router) postSubBatch(r *http.Request, i int, op uint8, sb *subBatch) (retry bool, err error) {
	buf := rt.bodyPool.Get().(*bytes.Buffer)
	defer rt.bodyPool.Put(buf)
	resp, err := rt.health.replicas[i].conns.roundTrip(r.Context(), http.MethodPost, "/batch", ctBatchBin, sb.body, rt.timeout, buf)
	if err != nil {
		return true, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode >= 500, &httpError{code: resp.StatusCode, msg: fmt.Sprintf("replica %s: %s", rt.replicas[i], bytes.TrimSpace(buf.Bytes()))}
	}
	if err := decodeBatchBinResponse(buf.Bytes(), op, sb.pairs, sb.cols); err != nil {
		// A 2xx the router cannot decode is a corrupt replica; retrying
		// elsewhere is safe and the failure feeds ejection.
		return true, fmt.Errorf("replica %s: %v", rt.replicas[i], err)
	}
	return false, nil
}

// decodeBatchBinResponse parses a binary /batch response back into
// cols, reusing their storage. The input buffer is pooled, so every
// column is copied out.
func decodeBatchBinResponse(body []byte, op uint8, pairs int, cols *batchColumns) error {
	le := binary.LittleEndian
	hdr, rest, err := nextFrame(body)
	if err != nil {
		return fmt.Errorf("bad batch response: %v", err)
	}
	if len(hdr) != 16 {
		return fmt.Errorf("bad batch response: header frame is %d bytes, want 16", len(hdr))
	}
	if m := le.Uint32(hdr); m != batchBinMagic {
		return fmt.Errorf("bad batch response: magic %#x", m)
	}
	if v := le.Uint16(hdr[4:]); v != batchBinVersion {
		return fmt.Errorf("bad batch response: version %d", v)
	}
	if hdr[6] != op {
		return fmt.Errorf("bad batch response: op %d, want %d", hdr[6], op)
	}
	if got := int(le.Uint32(hdr[8:])); got != pairs {
		return fmt.Errorf("bad batch response: %d pairs answered, sent %d", got, pairs)
	}
	totalPaths := int(le.Uint32(hdr[12:]))

	cols.op = op
	cols.dist, cols.off, cols.poff, cols.nodes = cols.dist[:0], cols.off[:0], cols.poff[:0], cols.nodes[:0]
	st, rest, err := nextFrame(rest)
	if err != nil || len(st) != pairs {
		return fmt.Errorf("bad batch response: status frame (%d bytes, err %v)", len(st), err)
	}
	cols.status = append(cols.status[:0], st...)
	if op == batchOpDist || op == batchOpRoute {
		if cols.dist, rest, err = readInt32Frame(rest, pairs, "dist", cols.dist); err != nil {
			return err
		}
	}
	switch op {
	case batchOpRoute, batchOpFaultRoute:
		if cols.off, rest, err = readInt32Frame(rest, pairs+1, "off", cols.off); err != nil {
			return err
		}
		if cols.nodes, rest, err = readIntFrame(rest, int(cols.off[pairs]), "nodes", cols.nodes); err != nil {
			return err
		}
	case batchOpPaths:
		if cols.off, rest, err = readInt32Frame(rest, pairs+1, "pair_off", cols.off); err != nil {
			return err
		}
		if cols.poff, rest, err = readInt32Frame(rest, totalPaths+1, "path_off", cols.poff); err != nil {
			return err
		}
		if cols.nodes, rest, err = readIntFrame(rest, int(cols.poff[totalPaths]), "nodes", cols.nodes); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("bad batch response: %d trailing bytes", len(rest))
	}
	return nil
}

// resized returns s with length n, reusing its storage when it can.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// readInt32Frame reads a frame of want values into vals' storage.
func readInt32Frame(data []byte, want int, name string, vals []int32) ([]int32, []byte, error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return nil, nil, fmt.Errorf("bad batch response: %s frame: %v", name, err)
	}
	if len(payload) != 4*want {
		return nil, nil, fmt.Errorf("bad batch response: %s frame is %d bytes, want %d values", name, len(payload), want)
	}
	vals = resized(vals, want)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return vals, rest, nil
}

// readIntFrame reads a frame of want values into vals' storage.
func readIntFrame(data []byte, want int, name string, vals []int) ([]int, []byte, error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return nil, nil, fmt.Errorf("bad batch response: %s frame: %v", name, err)
	}
	if want < 0 || len(payload) != 4*want {
		return nil, nil, fmt.Errorf("bad batch response: %s frame is %d bytes, want %d values", name, len(payload), want)
	}
	vals = resized(vals, want)
	for i := range vals {
		vals[i] = int(int32(binary.LittleEndian.Uint32(payload[4*i:])))
	}
	return vals, rest, nil
}

// mergeSubBatches reassembles the sub-responses, indexed by replica,
// into merged, in the original pair order and reusing merged's storage:
// pair i's answer is entry localIdx[i] of byRep[assign[i]]. Offsets are rebased
// (they are prefix sums into each sub-response's private arena), so the
// merged response is byte-identical to a single replica answering the
// whole batch.
func mergeSubBatches(req *batchRequest, byRep []batchColumns, assign []int16, localIdx []int32, merged *batchColumns) {
	pairs := len(req.src)

	merged.op, merged.m, merged.n, merged.faults = req.op, req.m, req.n, req.faults
	merged.dist, merged.off, merged.poff, merged.nodes = merged.dist[:0], merged.off[:0], merged.poff[:0], merged.nodes[:0]
	merged.status = resized(merged.status, pairs)
	for i := 0; i < pairs; i++ {
		c, j := &byRep[assign[i]], localIdx[i]
		merged.status[i] = c.status[j]
	}
	if req.op == batchOpDist || req.op == batchOpRoute {
		merged.dist = resized(merged.dist, pairs)
		for i := 0; i < pairs; i++ {
			c, j := &byRep[assign[i]], localIdx[i]
			merged.dist[i] = c.dist[j]
		}
	}

	switch req.op {
	case batchOpRoute, batchOpFaultRoute:
		merged.off = resized(merged.off, pairs+1)
		merged.off[0] = 0
		total := int32(0)
		for i := 0; i < pairs; i++ {
			c, j := &byRep[assign[i]], localIdx[i]
			total += c.off[j+1] - c.off[j]
			merged.off[i+1] = total
		}
		merged.nodes = resized(merged.nodes, int(total))
		for i := 0; i < pairs; i++ {
			c, j := &byRep[assign[i]], localIdx[i]
			copy(merged.nodes[merged.off[i]:merged.off[i+1]], c.nodes[c.off[j]:c.off[j+1]])
		}

	case batchOpPaths:
		merged.off = resized(merged.off, pairs+1)
		merged.off[0] = 0
		npaths, nnodes := int32(0), int32(0)
		for i := 0; i < pairs; i++ {
			c, j := &byRep[assign[i]], localIdx[i]
			npaths += c.off[j+1] - c.off[j]
			merged.off[i+1] = npaths
			for q := c.off[j]; q < c.off[j+1]; q++ {
				nnodes += c.poff[q+1] - c.poff[q]
			}
		}
		merged.poff = append(slices.Grow(merged.poff, int(npaths)+1), 0)
		merged.nodes = slices.Grow(merged.nodes, int(nnodes))
		for i := 0; i < pairs; i++ {
			c, j := &byRep[assign[i]], localIdx[i]
			for q := c.off[j]; q < c.off[j+1]; q++ {
				merged.nodes = append(merged.nodes, c.nodes[c.poff[q]:c.poff[q+1]]...)
				merged.poff = append(merged.poff, int32(len(merged.nodes)))
			}
		}
	}
}
