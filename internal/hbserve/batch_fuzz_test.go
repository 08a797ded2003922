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
		req := new(batchRequest)
		if err := parseBatchBody(ct, body, req); err != nil {
			return
		}
		op := batchOpNames[req.op]
		var again []byte
		if bin {
			var err error
			if again, err = EncodeBatchBinRequest(op, req.m, req.n, req.faults, req.src, req.dst); err != nil {
				t.Fatal(err)
			}
		} else {
			again = EncodeBatchJSONRequest(op, req.m, req.n, req.faults, req.src, req.dst)
		}
		req2 := new(batchRequest)
		if err := parseBatchBody(ct, again, req2); err != nil {
			t.Fatalf("re-encoded body %q rejected: %v", again, err)
		}
		if req2.codec != req.codec || req2.op != req.op || req2.m != req.m || req2.n != req.n ||
			!slices.Equal(req2.faults, req.faults) || !slices.Equal(req2.src, req.src) || !slices.Equal(req2.dst, req.dst) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, req2)
		}
	})
}

// FuzzParseBatchBodyReuse: decoding body b into a request that last
// held body a gives exactly what decoding b into a zero request gives —
// the same fields, or the same rejection — in either codec, so no
// column, fault set or default leaks from one pooled request into the
// next.
func FuzzParseBatchBodyReuse(f *testing.F) {
	seeds := [][2]string{
		{`{"op":"faultroute","faults":[3,17],"src":[1],"dst":[2]}`, `{"m":2,"n":3,"op":"route","src":[0,5],"dst":[9,95]}`},
		{`{"m":4,"n":5,"op":"paths","src":[1,2,3],"dst":[4,5,6]}`, `{"src":[7],"dst":[8]}`},
		{`{"m":2,"n":3,"src":[0,5],"dst":[9,95]}`, `{"m":2,"n":3,"src":null,"dst":[]}`},
		{`{"src":[1,2],"dst":[3,4]}`, `{"src": [1,`},
		{`{"src":[5],"dst":[1]}`, `{"m":3,"n":8,"op":"route","src":[null],"dst":[0]}`},
		{`{"op":"faultroute","faults":[3,17],"src":[1],"dst":[2]}`, `{"op":"faultroute","faults":[null],"src":[1],"dst":[2]}`},
	}
	for _, s := range seeds {
		f.Add(false, false, []byte(s[0]), []byte(s[1]))
	}
	a, err := EncodeBatchBinRequest("faultroute", 2, 3, []int{4, 6}, []int{0, 1, 2}, []int{5, 9, 11})
	if err != nil {
		f.Fatal(err)
	}
	b, err := EncodeBatchBinRequest("route", 3, 8, nil, []int{7}, []int{8})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, true, a, b)
	f.Add(true, true, a, b[:len(b)-2])
	f.Add(true, false, a, []byte(seeds[1][1]))
	f.Add(false, true, []byte(seeds[0][0]), b)
	f.Fuzz(func(t *testing.T, binA, binB bool, a, b []byte) {
		ct := func(bin bool) string {
			if bin {
				return ctBatchBin
			}
			return ctJSON
		}
		var reused, fresh batchRequest
		parseBatchBody(ct(binA), a, &reused)
		errReused := parseBatchBody(ct(binB), b, &reused)
		errFresh := parseBatchBody(ct(binB), b, &fresh)
		if (errReused == nil) != (errFresh == nil) || errReused != nil && errReused.Error() != errFresh.Error() {
			t.Fatalf("after %q, body %q: error %v, fresh %v", a, b, errReused, errFresh)
		}
		if errFresh != nil {
			return
		}
		if reused.codec != fresh.codec || reused.op != fresh.op || reused.m != fresh.m || reused.n != fresh.n ||
			!slices.Equal(reused.faults, fresh.faults) || !slices.Equal(reused.src, fresh.src) || !slices.Equal(reused.dst, fresh.dst) {
			t.Fatalf("after %q, body %q decoded to\n%+v\nfresh\n%+v", a, b, reused, fresh)
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
		req := new(batchRequest)
		err := parseBatchBody(ct, body, req)
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
// encoder, and a binary answer decoded and rendered as JSON, as the
// router answers a JSON client, equals the replica's own JSON answer.
func FuzzBatchBinResponse(f *testing.F) {
	f.Add([]byte{0, 3, 5, 6, 7})
	f.Add([]byte{1, 8, 0, 4, 2, 9, 1, 1, 0, 3, 250, 2, 2, 1})
	f.Add([]byte{2, 6, 1, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{3, 16, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
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
		dec := dirtyColumns()
		if err := decodeBatchBinResponse(appendBatchBin(nil, whole), op, pairs, dec); err != nil {
			t.Fatalf("decoding an encoded response: %v", err)
		}
		if !sameColumns(dec, whole) {
			t.Fatalf("decode(encode(c)) = %+v, want %+v", dec, whole)
		}
		dec.m, dec.n, dec.faults = whole.m, whole.n, faults
		if got, want := appendBatchJSON([]byte{9}, dec)[1:], appendBatchJSON(nil, whole); !bytes.Equal(got, want) {
			t.Fatalf("JSON rendered from the decoded answer %q differs from the replica's %q", got, want)
		}
	})
}

// FuzzBatchBinResponseBytes: the router's answer validator never
// panics on arbitrary bytes, and an answer it accepts decodes into
// columns that render as JSON, and that encode into an answer it
// accepts again and that decodes to the same columns.
func FuzzBatchBinResponseBytes(f *testing.F) {
	for op := range batchOpNames {
		answers := []pairAnswer{{segs: [][]int{{1, 2}, {3}}}, {status: 2, dist: 5, segs: [][]int{{4}}}}
		body := appendBatchBin(nil, assembleColumns(op, nil, answers))
		f.Add(op, uint16(2), body)
		f.Add(op, uint16(2), body[:len(body)-5])
		f.Add(op, uint16(1), body)
	}
	// A route answer whose offsets run past the nodes and back: off=[0,5,2].
	f.Add(batchOpRoute, uint16(2), appendBatchBin(nil, &batchColumns{op: batchOpRoute,
		status: []uint8{0, 0}, dist: []int32{1, 1}, off: []int32{0, 5, 2}, nodes: []int{7, 8}}))
	f.Fuzz(func(t *testing.T, op uint8, pairs uint16, body []byte) {
		op %= 4 // the op is the router's own, one of the four; the body is the network's
		if _, err := splitBatchBinResponse(body, op, int(pairs)); err != nil {
			return
		}
		var want, got batchColumns
		if err := decodeBatchBinResponse(body, op, int(pairs), &want); err != nil {
			t.Fatalf("decoding an accepted answer: %v", err)
		}
		if err := decodeBatchBinResponse(appendBatchBin(nil, &want), op, int(pairs), &got); err != nil {
			t.Fatalf("re-encoding an accepted answer gave a rejected one: %v", err)
		}
		if !sameColumns(&got, &want) {
			t.Fatalf("re-encoded answer decodes to %+v, the original to %+v", got, want)
		}
		appendBatchJSON(nil, &want) // a JSON client's answer is rendered from these columns
	})
}
