package hbserve

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseBatchBody: the /batch request decoders never panic, and any
// body one of them accepts re-encodes in its codec and re-parses to the
// same request.
func FuzzParseBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"m":2,"n":3,"op":"route","src":[0,5],"dst":[9,95]}`,
		`{"op":"faultroute","faults":[3,17],"src":[1],"dst":[2]}`,
		`{"op":"paths","src":[],"dst":[]}`,
		`{"m":-1,"n":40,"src":[-5],"dst":[7]}`,
		`{"src": [1,`,
	} {
		f.Add(false, []byte(body))
	}
	for op := range batchOpNames {
		body, err := EncodeBatchBinRequest(batchOpNames[op], 2, 3, []int{4}, []int{0, 1}, []int{5, 9})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(true, body)
		f.Add(true, body[:len(body)-3])
	}
	f.Fuzz(func(t *testing.T, bin bool, body []byte) {
		ct := ctJSON
		if bin {
			ct = ctBatchBin
		}
		req, err := parseBatchBody(ct, body)
		if err != nil {
			return
		}
		op := batchOpNames[req.op]
		var again []byte
		if bin {
			if again, err = EncodeBatchBinRequest(op, req.m, req.n, req.faults, req.src, req.dst); err != nil {
				t.Fatal(err)
			}
		} else {
			again = EncodeBatchJSONRequest(op, req.m, req.n, req.faults, req.src, req.dst)
		}
		req2, err := parseBatchBody(ct, again)
		if err != nil {
			t.Fatalf("re-encoded body %q rejected: %v", again, err)
		}
		if req2.codec != req.codec || req2.op != req.op || req2.m != req.m || req2.n != req.n ||
			!slices.Equal(req2.faults, req.faults) || !slices.Equal(req2.src, req.src) || !slices.Equal(req2.dst, req.dst) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, req2)
		}
	})
}

// FuzzPeekBatchDims: the router's edge check never panics, and on any
// body both it and the full decoder accept, it reads the same dims.
func FuzzPeekBatchDims(f *testing.F) {
	cts := []string{ctJSON, ctBatchBin, "", ctJSON + "; charset=utf-8", ctBatchBin + "; v=1", "text/plain"}
	for _, body := range []string{
		`{"m":2,"n":3,"op":"route","src":[0,5],"dst":[9,95]}`,
		`{"M":4,"n":5,"m":6,"src":[],"dst":[]}`,
		`{"m":-1,"n":40,"src":[-5],"dst":[7]}`,
		`{"n":3,"src":[1],"dst":[2]}`,
		`{"m":2, "n":`,
	} {
		f.Add(uint8(0), []byte(body))
	}
	body, err := EncodeBatchBinRequest("route", 3, 8, nil, []int{0, 1}, []int{5, 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(1), body)
	f.Add(uint8(4), body)
	f.Add(uint8(1), body[:19])
	f.Fuzz(func(t *testing.T, ctPick uint8, body []byte) {
		ct := cts[int(ctPick)%len(cts)]
		m, n, ok := peekBatchDims(ct, body)
		req, err := parseBatchBody(ct, body)
		if !ok || err != nil {
			return
		}
		if m != req.m || n != req.n {
			t.Fatalf("Content-Type %q body %q: peek read dims (%d,%d), the decoder (%d,%d)", ct, body, m, n, req.m, req.n)
		}
	})
}

// pairAnswer is one pair's answer: its status, distance and node
// segments (one route for route and faultroute, the paths for paths).
type pairAnswer struct {
	status uint8
	dist   int32
	segs   [][]int
}

// assembleColumns lays answers out as the columns one replica would
// produce for them.
func assembleColumns(op uint8, faults []int, answers []pairAnswer) *batchColumns {
	c := &batchColumns{op: op, m: 2, n: 3, faults: faults, status: []uint8{}}
	if op != batchOpDist {
		c.off = []int32{0}
		c.nodes = []int{}
	}
	if op == batchOpPaths {
		c.poff = []int32{0}
	}
	for _, a := range answers {
		c.status = append(c.status, a.status)
		switch op {
		case batchOpDist:
			c.dist = append(c.dist, a.dist)
		case batchOpRoute, batchOpFaultRoute:
			if op == batchOpRoute {
				c.dist = append(c.dist, a.dist)
			}
			c.nodes = append(c.nodes, a.segs[0]...)
			c.off = append(c.off, int32(len(c.nodes)))
		case batchOpPaths:
			for _, p := range a.segs {
				c.nodes = append(c.nodes, p...)
				c.poff = append(c.poff, int32(len(c.nodes)))
			}
			c.off = append(c.off, int32(len(c.poff)-1))
		}
	}
	return c
}

// dirtyColumns stands in for reused scratch: decoding and merging into
// it must leave nothing of its old content behind.
func dirtyColumns() *batchColumns {
	return &batchColumns{status: []uint8{9, 9}, dist: []int32{7}, off: []int32{5, 6}, poff: []int32{3}, nodes: []int{1, 2, 3}}
}

func sameColumns(a, b *batchColumns) bool {
	return a.op == b.op && slices.Equal(a.status, b.status) && slices.Equal(a.dist, b.dist) &&
		slices.Equal(a.off, b.off) && slices.Equal(a.poff, b.poff) && slices.Equal(a.nodes, b.nodes)
}

// FuzzBatchBinResponse: the binary response decoder inverts the
// encoder, and merging the decoded sub-responses of any partition of a
// batch gives the whole-batch bytes in both codecs.
func FuzzBatchBinResponse(f *testing.F) {
	f.Add([]byte{0, 1, 3, 5, 6, 7})
	f.Add([]byte{1, 3, 8, 0, 4, 2, 9, 1, 1, 0, 3, 250, 2, 2, 1})
	f.Add([]byte{2, 2, 6, 1, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{3, 4, 16, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		op := uint8(next() % 4)
		parts := 1 + next()%4
		pairs := next() % 32
		var faults []int
		if op == batchOpFaultRoute {
			faults = []int{next(), next()}
		}
		answers := make([]pairAnswer, pairs)
		for i := range answers {
			a := &answers[i]
			a.status, a.dist = uint8(next()%3), int32(next())-1
			nsegs := 1
			if op == batchOpPaths {
				nsegs = next() % 4
			}
			for s := 0; s < nsegs; s++ {
				seg := []int{}
				for k := next() % 6; k > 0; k-- {
					seg = append(seg, next()<<12|next())
				}
				a.segs = append(a.segs, seg)
			}
		}
		whole := assembleColumns(op, faults, answers)
		wholeBin := appendBatchBin(nil, whole)
		dec := dirtyColumns()
		if err := decodeBatchBinResponse(wholeBin, op, pairs, dec); err != nil {
			t.Fatalf("decoding an encoded response: %v", err)
		}
		if !sameColumns(dec, whole) {
			t.Fatalf("decode(encode(c)) = %+v, want %+v", dec, whole)
		}

		assign := make([]int16, pairs)
		localIdx := make([]int32, pairs)
		byPart := make([][]pairAnswer, parts)
		for i := range answers {
			p := next() % parts
			assign[i], localIdx[i] = int16(p), int32(len(byPart[p]))
			byPart[p] = append(byPart[p], answers[i])
		}
		byRep := make([]batchColumns, parts)
		for p, part := range byPart {
			if len(part) == 0 {
				continue
			}
			byRep[p] = *dirtyColumns()
			if err := decodeBatchBinResponse(appendBatchBin(nil, assembleColumns(op, faults, part)), op, len(part), &byRep[p]); err != nil {
				t.Fatalf("decoding sub-response %d: %v", p, err)
			}
		}
		req := &batchRequest{op: op, m: whole.m, n: whole.n, faults: faults, src: make([]int, pairs)}
		merged := dirtyColumns()
		mergeSubBatches(req, byRep, assign, localIdx, merged)
		if got := appendBatchBin(nil, merged); !bytes.Equal(got, wholeBin) {
			t.Fatalf("merged binary response differs from the whole batch's")
		}
		if got, want := appendBatchJSON(nil, merged), appendBatchJSON(nil, whole); !bytes.Equal(got, want) {
			t.Fatalf("merged JSON response %s, want %s", got, want)
		}
	})
}
