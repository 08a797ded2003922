package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// checker verifies answers against the library on HB(3,8).
type checker struct {
	hb  *core.HyperButterfly
	in  *inputs
	nbr []int
	bs  core.BatchScratch
}

func newChecker(in *inputs) *checker {
	return &checker{hb: core.MustNew(benchM, benchN), in: in}
}

// check reports why body is not a correct answer to req, or nil.
func (c *checker) check(req *request, body []byte) error {
	switch req.kind {
	case reqRoute:
		var resp struct {
			Distance int   `json:"distance"`
			Path     []int `json:"path"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("route: %v", err)
		}
		want := c.hb.Distance(req.u, req.v)
		if resp.Distance != want || len(resp.Path) != want+1 {
			return fmt.Errorf("route %d->%d: distance %d with %d hops, want %d",
				req.u, req.v, resp.Distance, len(resp.Path)-1, want)
		}
		return c.walk(req.u, req.v, resp.Path, nil)
	case reqFaultRoute:
		var resp struct {
			Path []int `json:"path"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("faultroute: %v", err)
		}
		return c.walk(req.u, req.v, resp.Path, c.in.faultMask[req.fset])
	case reqPaths:
		var resp struct {
			Count int     `json:"count"`
			Paths [][]int `json:"paths"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("paths: %v", err)
		}
		if want := benchM + 4; resp.Count != want || len(resp.Paths) != want {
			return fmt.Errorf("paths %d->%d: %d paths (count %d), want %d", req.u, req.v, len(resp.Paths), resp.Count, want)
		}
		if err := graph.VerifyDisjointPaths(c.hb, req.u, req.v, resp.Paths); err != nil {
			return fmt.Errorf("paths %d->%d: %v", req.u, req.v, err)
		}
		return nil
	case reqBatch:
		return c.checkBatch(req, body)
	}
	return fmt.Errorf("unknown request kind %d", req.kind)
}

// walk checks that path runs u..v over edges of HB(3,8) and avoids
// every node of faults.
func (c *checker) walk(u, v int, path []int, faults map[int]bool) error {
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return fmt.Errorf("path does not run %d..%d: %v", u, v, path)
	}
	for i, x := range path {
		if faults[x] {
			return fmt.Errorf("path %d..%d visits faulty node %d", u, v, x)
		}
		if i > 0 {
			c.nbr = c.hb.AppendNeighbors(path[i-1], c.nbr[:0])
			if !slices.Contains(c.nbr, x) {
				return fmt.Errorf("path %d..%d: %d and %d are not neighbours", u, v, path[i-1], x)
			}
		}
	}
	return nil
}

// checkBatch decodes a binary route answer and compares every column
// with core.RouteBatch on the same pairs.
func (c *checker) checkBatch(req *request, body []byte) error {
	frames, err := splitFrames(body, 5)
	if err != nil {
		return fmt.Errorf("batch: %v", err)
	}
	hdr := frames[0]
	le := binary.LittleEndian
	if len(hdr) != 16 || string(hdr[0:4]) != "HBB1" || hdr[6] != 1 || int(le.Uint32(hdr[8:12])) != len(req.src) {
		return fmt.Errorf("batch: bad response header % x", hdr)
	}
	if err := core.RouteBatch(c.hb, core.BatchRoute, req.src, req.dst, 1, &c.bs); err != nil {
		return fmt.Errorf("batch: reference: %v", err)
	}
	want := [][]byte{c.bs.Status, le32(c.bs.Dist), le32(c.bs.Off), le32(c.bs.Nodes)}
	for i, name := range []string{"status", "dist", "off", "nodes"} {
		if string(frames[i+1]) != string(want[i]) {
			return fmt.Errorf("batch: %s column differs from core.RouteBatch", name)
		}
	}
	return nil
}

// splitFrames splits the binary codec's length-prefixed frames.
func splitFrames(data []byte, n int) ([][]byte, error) {
	frames := make([][]byte, 0, n)
	for len(frames) < n {
		if len(data) < 4 {
			return nil, fmt.Errorf("truncated after %d frames", len(frames))
		}
		size := int(binary.LittleEndian.Uint32(data))
		if len(data) < 4+size {
			return nil, fmt.Errorf("frame %d truncated", len(frames))
		}
		frames = append(frames, data[4:4+size])
		data = data[4+size:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(data))
	}
	return frames, nil
}

// le32 renders vals as the codec's little-endian 32-bit column.
func le32[T int32 | core.Node](vals []T) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}
