// Package snapshot is the versioned binary format for precomputed
// HB(m,n) artifacts: the all-pairs distance histogram, per-node
// eccentricities, and the Theorem 5 disjoint-path table from the
// representative node 0 (HB is vertex-transitive, so one source column
// characterises the family). hbtables -snapshot computes them once with
// the sweep engines; hbd mmap-loads the file at startup and answers
// /estimate-class queries for covered instances as O(1) lookups instead
// of per-request sweeps.
//
// The format is little-endian throughout and gated three ways on load:
// a magic number, an explicit version, and a trailing CRC-64/ECMA over
// every preceding byte. Loading prefers mmap (the kernel pages the
// tables in on demand and shares them across processes) with a plain
// read fallback, so a snapshot behaves identically on platforms or
// filesystems where mapping fails.
//
// Layout (offsets in bytes):
//
//	0   u32  magic "HBSP"
//	4   u32  version (currently 1)
//	8   u32  m
//	12  u32  n
//	16  u64  order
//	24  u32  diameter
//	28  u32  histLen
//	32  u64  pathBytes (size of the path blob)
//	40  u64  reserved (0)
//	48  i64[histLen]   hist: ordered (src,dst) pairs per distance,
//	                   self pairs included (hist[0] == order)
//	    u16[order]     ecc: per-node eccentricity
//	    u32[order+1]   pathIndex: byte offsets into the path blob
//	    [pathBytes]    path blob; node v's region holds
//	                   u16 count, then per path u16 len, u32 nodes[len]
//	end-8 u64 crc64(file[0 : end-8])
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"

	"repro/internal/core"
)

const (
	// Magic identifies a snapshot file ("HBSP" little-endian).
	Magic uint32 = 0x50534248
	// Version is the current format version; readers reject all others.
	Version uint32 = 1
	// MaxOrder bounds Build: the path table holds order-1 disjoint-path
	// bundles, so snapshots are for instances small enough to precompute
	// exhaustively.
	MaxOrder = 1 << 12
	// FileSuffix is the conventional artifact extension; hbtables writes
	// it and hbd's -snapshotdir scan selects by it.
	FileSuffix = ".hbsnap"

	headerSize = 48
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Snapshot is one loaded (or freshly built) precomputed-artifact set.
// The eccentricity and path tables stay in their wire encoding and are
// decoded per access, so a mapped snapshot costs no decode time or heap
// at load beyond the small histogram.
type Snapshot struct {
	M, N     int
	Order    int
	Diameter int
	// Hist[d] counts ordered (src, dst) pairs at distance d, self pairs
	// included, summing to Order².
	Hist []int64

	ecc       []byte // u16 per node
	pathIndex []byte // u32 per node, order+1 entries
	pathBlob  []byte

	data   []byte // whole-file backing (mmap or heap)
	mapped bool
}

// Build computes a snapshot live from hb: one bit-parallel all-sources
// sweep for the histogram and eccentricities, and one DisjointPaths
// call per target for the node-0 path table. workers <= 0 means
// GOMAXPROCS.
func Build(hb *core.HyperButterfly, workers int) (*Snapshot, error) {
	order := hb.Order()
	if order > MaxOrder {
		return nil, fmt.Errorf("snapshot: HB(%d,%d) has %d nodes, over the snapshot cap %d",
			hb.M(), hb.N(), order, MaxOrder)
	}
	sweep := hb.Dense().AllSourcesBits(nil, workers)
	if !sweep.Complete {
		return nil, fmt.Errorf("snapshot: HB(%d,%d) sweep incomplete: %d does not reach %d",
			hb.M(), hb.N(), sweep.MissingSrc, sweep.MissingDst)
	}
	s := &Snapshot{
		M:     hb.M(),
		N:     hb.N(),
		Order: order,
		Hist:  append([]int64(nil), sweep.Hist...),
	}
	s.ecc = make([]byte, 2*order)
	for v, e := range sweep.Ecc {
		if int(e) > s.Diameter {
			s.Diameter = int(e)
		}
		binary.LittleEndian.PutUint16(s.ecc[2*v:], uint16(e))
	}

	s.pathIndex = make([]byte, 4*(order+1))
	var blob []byte
	for v := 1; v < order; v++ {
		binary.LittleEndian.PutUint32(s.pathIndex[4*v:], uint32(len(blob)))
		paths, err := hb.DisjointPaths(0, v)
		if err != nil {
			return nil, fmt.Errorf("snapshot: disjoint paths 0->%d: %w", v, err)
		}
		blob = binary.LittleEndian.AppendUint16(blob, uint16(len(paths)))
		for _, p := range paths {
			blob = binary.LittleEndian.AppendUint16(blob, uint16(len(p)))
			for _, node := range p {
				blob = binary.LittleEndian.AppendUint32(blob, uint32(node))
			}
		}
	}
	binary.LittleEndian.PutUint32(s.pathIndex[4*order:], uint32(len(blob)))
	// Node 0's region is empty by construction: pathIndex[0] and
	// pathIndex[1] are both 0.
	s.pathBlob = blob
	return s, nil
}

// Encode renders the snapshot in wire format, checksum included.
func (s *Snapshot) Encode() []byte {
	size := headerSize + 8*len(s.Hist) + len(s.ecc) + len(s.pathIndex) + len(s.pathBlob) + 8
	out := make([]byte, headerSize, size)
	le := binary.LittleEndian
	le.PutUint32(out[0:], Magic)
	le.PutUint32(out[4:], Version)
	le.PutUint32(out[8:], uint32(s.M))
	le.PutUint32(out[12:], uint32(s.N))
	le.PutUint64(out[16:], uint64(s.Order))
	le.PutUint32(out[24:], uint32(s.Diameter))
	le.PutUint32(out[28:], uint32(len(s.Hist)))
	le.PutUint64(out[32:], uint64(len(s.pathBlob)))
	for _, h := range s.Hist {
		out = le.AppendUint64(out, uint64(h))
	}
	out = append(out, s.ecc...)
	out = append(out, s.pathIndex...)
	out = append(out, s.pathBlob...)
	return le.AppendUint64(out, crc64.Checksum(out, crcTable))
}

// WriteFile writes the encoded snapshot to path.
func (s *Snapshot) WriteFile(path string) error {
	return os.WriteFile(path, s.Encode(), 0o644)
}

// Load opens a snapshot file, mapping it read-only when the platform
// allows and falling back to a plain read otherwise. Close releases the
// mapping.
func Load(path string) (*Snapshot, error) {
	data, mapped, err := readFileMapped(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	s, err := Decode(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	s.data = data
	s.mapped = mapped
	return s, nil
}

// Close releases a mapped snapshot's pages; it is a no-op for
// heap-backed ones. The snapshot must not be used afterwards.
func (s *Snapshot) Close() error {
	if !s.mapped {
		return nil
	}
	s.mapped = false
	data := s.data
	s.data, s.ecc, s.pathIndex, s.pathBlob = nil, nil, nil, nil
	return unmapFile(data)
}

// Mapped reports whether the snapshot is served from an mmap rather
// than heap memory.
func (s *Snapshot) Mapped() bool { return s.mapped }

// Decode validates data (magic, version, section bounds, checksum) and
// returns a snapshot whose tables alias data — the caller keeps data
// alive for the snapshot's lifetime.
func Decode(data []byte) (*Snapshot, error) {
	le := binary.LittleEndian
	if len(data) < headerSize+8 {
		return nil, fmt.Errorf("truncated: %d bytes, header needs %d", len(data), headerSize+8)
	}
	if m := le.Uint32(data[0:]); m != Magic {
		return nil, fmt.Errorf("bad magic %#x, want %#x", m, Magic)
	}
	if v := le.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("unsupported version %d, want %d", v, Version)
	}
	body, sum := data[:len(data)-8], le.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != sum {
		return nil, fmt.Errorf("checksum mismatch: file says %#x, content is %#x", sum, got)
	}
	s := &Snapshot{
		M:        int(le.Uint32(data[8:])),
		N:        int(le.Uint32(data[12:])),
		Order:    int(le.Uint64(data[16:])),
		Diameter: int(le.Uint32(data[24:])),
	}
	histLen := int(le.Uint32(data[28:]))
	pathBytes := int(le.Uint64(data[32:]))
	// Order and pathBytes size sections of data, so neither can exceed
	// it; bounding them first keeps the size sum below from overflowing.
	if s.Order <= 0 || s.Order > len(data) || histLen < 0 || pathBytes < 0 || pathBytes > len(data) {
		return nil, fmt.Errorf("implausible header: order %d histLen %d pathBytes %d", s.Order, histLen, pathBytes)
	}
	if r := le.Uint64(data[40:]); r != 0 {
		return nil, fmt.Errorf("reserved header field is %#x, want 0", r)
	}
	want := headerSize + 8*histLen + 2*s.Order + 4*(s.Order+1) + pathBytes + 8
	if len(data) != want {
		return nil, fmt.Errorf("truncated: %d bytes, sections need %d", len(data), want)
	}
	off := headerSize
	s.Hist = make([]int64, histLen)
	for i := range s.Hist {
		s.Hist[i] = int64(le.Uint64(data[off:]))
		off += 8
	}
	s.ecc = data[off : off+2*s.Order]
	off += 2 * s.Order
	s.pathIndex = data[off : off+4*(s.Order+1)]
	off += 4 * (s.Order + 1)
	s.pathBlob = data[off : off+pathBytes]
	return s, nil
}

// Eccentricity returns node v's precomputed eccentricity.
func (s *Snapshot) Eccentricity(v int) int {
	return int(binary.LittleEndian.Uint16(s.ecc[2*v:]))
}

// EccentricityRange returns the smallest and largest eccentricity (the
// radius and diameter).
func (s *Snapshot) EccentricityRange() (min, max int) {
	min = s.Eccentricity(0)
	max = min
	for v := 1; v < s.Order; v++ {
		e := s.Eccentricity(v)
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}

// MeanDistance returns the mean over ordered pairs of distinct nodes.
func (s *Snapshot) MeanDistance() float64 {
	var sum, pairs int64
	for d, c := range s.Hist {
		if d == 0 {
			continue
		}
		sum += int64(d) * c
		pairs += c
	}
	if pairs == 0 {
		return 0
	}
	return float64(sum) / float64(pairs)
}

// Fractions returns the fraction of ordered distinct pairs at each
// distance; index 0 is always 0.
func (s *Snapshot) Fractions() []float64 {
	out := make([]float64, len(s.Hist))
	pairs := int64(s.Order)*int64(s.Order) - int64(s.Order)
	if pairs == 0 {
		return out
	}
	for d, c := range s.Hist {
		if d == 0 {
			continue
		}
		out[d] = float64(c) / float64(pairs)
	}
	return out
}

// DisjointPaths decodes the precomputed Theorem 5 path bundle from node
// 0 to v.
func (s *Snapshot) DisjointPaths(v int) ([][]int, error) {
	if v <= 0 || v >= s.Order {
		return nil, fmt.Errorf("snapshot: path table covers targets [1,%d), got %d", s.Order, v)
	}
	le := binary.LittleEndian
	lo := int(le.Uint32(s.pathIndex[4*v:]))
	hi := int(le.Uint32(s.pathIndex[4*(v+1):]))
	if lo > hi || hi > len(s.pathBlob) {
		return nil, fmt.Errorf("snapshot: corrupt path index for node %d: [%d,%d) of %d", v, lo, hi, len(s.pathBlob))
	}
	region := s.pathBlob[lo:hi]
	if len(region) < 2 {
		return nil, fmt.Errorf("snapshot: empty path region for node %d", v)
	}
	count := int(le.Uint16(region))
	off := 2
	paths := make([][]int, 0, count)
	for p := 0; p < count; p++ {
		if off+2 > len(region) {
			return nil, fmt.Errorf("snapshot: corrupt path region for node %d", v)
		}
		plen := int(le.Uint16(region[off:]))
		off += 2
		if off+4*plen > len(region) {
			return nil, fmt.Errorf("snapshot: corrupt path region for node %d", v)
		}
		path := make([]int, plen)
		for i := range path {
			path[i] = int(le.Uint32(region[off:]))
			off += 4
		}
		paths = append(paths, path)
	}
	if off != len(region) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes in path region for node %d", len(region)-off, v)
	}
	return paths, nil
}
