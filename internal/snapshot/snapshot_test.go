package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// TestRoundTrip is the snapshot differential gate: build live, write,
// mmap-load, and every query against the loaded snapshot must equal the
// live computation on HB(2,3) and HB(3,3).
func TestRoundTrip(t *testing.T) {
	for _, dims := range []struct{ m, n int }{{2, 3}, {3, 3}} {
		hb := core.MustNew(dims.m, dims.n)
		built, err := snapshot.Build(hb, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap.hbsnap")
		if err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := snapshot.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()

		if loaded.M != dims.m || loaded.N != dims.n || loaded.Order != hb.Order() {
			t.Fatalf("HB(%d,%d): loaded identity %d/%d/%d", dims.m, dims.n, loaded.M, loaded.N, loaded.Order)
		}
		// Histogram against a live bit-parallel sweep.
		liveHist := hb.Dense().AllSourcesBits(nil, 0).Hist
		if !reflect.DeepEqual(loaded.Hist, liveHist) {
			t.Errorf("HB(%d,%d): hist %v, live %v", dims.m, dims.n, loaded.Hist, liveHist)
		}
		// Eccentricities per node against single-source BFS.
		for _, v := range []int{0, 1, hb.Order() / 2, hb.Order() - 1} {
			liveEcc, connected := graph.Eccentricity(hb, v)
			if !connected {
				t.Fatalf("HB(%d,%d) disconnected at %d", dims.m, dims.n, v)
			}
			if got := loaded.Eccentricity(v); got != liveEcc {
				t.Errorf("HB(%d,%d): ecc(%d) = %d, live %d", dims.m, dims.n, v, got, liveEcc)
			}
		}
		if lo, hi := loaded.EccentricityRange(); hi != loaded.Diameter || lo > hi {
			t.Errorf("ecc range [%d,%d] vs diameter %d", lo, hi, loaded.Diameter)
		}
		// Path table: byte-for-byte the live construction, and
		// independently certified as disjoint shortest-bounded paths.
		for v := 1; v < hb.Order(); v++ {
			got, err := loaded.DisjointPaths(v)
			if err != nil {
				t.Fatalf("HB(%d,%d): paths(%d): %v", dims.m, dims.n, v, err)
			}
			want, err := hb.DisjointPaths(0, v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("HB(%d,%d): paths(%d) diverge from live compute", dims.m, dims.n, v)
			}
			if err := graph.VerifyDisjointPaths(hb, 0, v, got); err != nil {
				t.Fatalf("HB(%d,%d): paths(%d) fail verification: %v", dims.m, dims.n, v, err)
			}
		}
		if loaded.MeanDistance() <= 0 || loaded.MeanDistance() > float64(loaded.Diameter) {
			t.Errorf("mean distance %v outside (0,%d]", loaded.MeanDistance(), loaded.Diameter)
		}
		fr := loaded.Fractions()
		sum := 0.0
		for _, f := range fr {
			sum += f
		}
		if fr[0] != 0 || sum < 0.999 || sum > 1.001 {
			t.Errorf("fractions %v sum to %v", fr, sum)
		}
	}
}

func TestLoadMapsOnUnix(t *testing.T) {
	hb := core.MustNew(1, 3)
	built, err := snapshot.Build(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.hbsnap")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// On the platforms CI runs, the mmap path must actually engage —
	// otherwise the fallback is silently load-bearing.
	if !loaded.Mapped() {
		t.Log("snapshot loaded via plain read (mmap unavailable on this platform)")
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if loaded.Mapped() {
		t.Error("still mapped after Close")
	}
}

// TestRejections covers every load gate: truncation at several
// boundaries, a corrupted magic, an unknown version, and a payload flip
// the checksum must catch.
func TestRejections(t *testing.T) {
	hb := core.MustNew(1, 3)
	built, err := snapshot.Build(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := built.Encode()
	if _, err := snapshot.Decode(good); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := snapshot.Decode(b); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("truncated header", func(b []byte) []byte { return b[:20] })
	corrupt("truncated body", func(b []byte) []byte { return b[:len(b)-9] })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xAA) })
	corrupt("bad magic", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b, 0xDEADBEEF)
		return b
	})
	corrupt("wrong version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[4:], snapshot.Version+1)
		return b
	})
	corrupt("payload flip", func(b []byte) []byte {
		b[len(b)/2] ^= 0x01
		return b
	})
	corrupt("checksum flip", func(b []byte) []byte {
		b[len(b)-1] ^= 0x01
		return b
	})

	// The same gates must hold through the file loader.
	bad := filepath.Join(t.TempDir(), "bad.hbsnap")
	flip := append([]byte(nil), good...)
	flip[headerProbe] ^= 0x01
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Load(bad); err == nil {
		t.Error("corrupt file loaded")
	}
	if _, err := snapshot.Load(filepath.Join(t.TempDir(), "absent.hbsnap")); err == nil {
		t.Error("absent file loaded")
	}
}

// headerProbe is a byte inside the histogram section — flipping it
// must trip the checksum, not a bounds check.
const headerProbe = 60

func TestBuildRefusesHugeInstances(t *testing.T) {
	hb := core.MustNew(3, 8) // 16384 nodes, over MaxOrder
	if _, err := snapshot.Build(hb, 0); err == nil {
		t.Fatal("built a snapshot over MaxOrder")
	}
}

func TestDisjointPathsBounds(t *testing.T) {
	hb := core.MustNew(1, 3)
	s, err := snapshot.Build(hb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, -1, s.Order} {
		if _, err := s.DisjointPaths(v); err == nil {
			t.Errorf("paths(%d) accepted", v)
		}
	}
}

// FuzzSnapshotDecode checks the snapshot decoder on arbitrary bytes:
//   - Decode never panics, on the input as given or sealed with a valid
//     checksum (which lets the fuzzer past the CRC gate into the header
//     and section checks);
//   - a sealed input that decodes re-encodes to the same bytes, and its
//     accessors stay in bounds;
//   - the valid HB(2,3) encoding round-trips through Decode (checked
//     once), and flipping any single bit of it (the input picks which)
//     makes Decode return an error.
func FuzzSnapshotDecode(f *testing.F) {
	built, err := snapshot.Build(core.MustNew(2, 3), 0)
	if err != nil {
		f.Fatal(err)
	}
	valid := built.Encode()
	s, err := snapshot.Decode(valid)
	if err != nil {
		f.Fatalf("valid encoding rejected: %v", err)
	}
	if s.M != 2 || s.N != 3 || !reflect.DeepEqual(s.Hist, built.Hist) || !bytes.Equal(s.Encode(), valid) {
		f.Fatal("valid encoding does not round-trip")
	}

	le := binary.LittleEndian
	header := func(order, histLen, pathBytes uint64) []byte {
		h := slices.Clone(valid[:48])
		le.PutUint64(h[16:], order)
		le.PutUint32(h[28:], uint32(histLen))
		le.PutUint64(h[32:], pathBytes)
		return h
	}
	// A one-node snapshot: hist [1], ecc 0, path index [0 2], and a
	// two-byte path region holding zero paths.
	tiny := append(header(1, 1, 2), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0)
	f.Add(tiny, uint32(0))
	f.Add(valid[:48], uint32(8*16))            // header only; flip the order field
	f.Add(valid[len(valid)-64:], uint32(8*40)) // tail; flip the reserved field
	f.Add([]byte{}, uint32(8*len(valid)-1))    // flip a checksum bit
	// Section sizes whose sum wraps around to the sealed 56-byte length.
	f.Add(header(1<<62, 0, 1<<63-4), uint32(8*(len(valid)/2)))
	ecma := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		snapshot.Decode(data)
		sealed := le.AppendUint64(slices.Clip(data), crc64.Checksum(data, ecma))
		if s, err := snapshot.Decode(sealed); err == nil {
			if !bytes.Equal(s.Encode(), sealed) {
				t.Fatalf("decoded input re-encodes differently")
			}
			s.EccentricityRange()
			s.MeanDistance()
			s.Fractions()
			for v := 0; v < s.Order && v < 64; v++ {
				s.DisjointPaths(v)
			}
		}

		i := int(bit % uint32(8*len(valid)))
		flipped := slices.Clone(valid)
		flipped[i/8] ^= 1 << (i % 8)
		if _, err := snapshot.Decode(flipped); err == nil {
			t.Fatalf("flipping bit %d of a valid encoding was accepted", i)
		}
	})
}
