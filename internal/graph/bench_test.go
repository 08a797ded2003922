package graph_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Benchmarks for the CSR BFS kernel layer (E-PF in EXPERIMENTS.md).
// The *Reference benchmarks replicate the pre-kernel implementations
// (interface-dispatched BFS, fresh buffers per source, append-growth
// histogram) so before/after is measurable in one tree:
//
//	go test ./internal/graph -bench 'BFS|Diameter|DistanceHistogram' -benchmem
//
// BENCH_graph.json (the cross-PR perf trajectory artifact) is emitted by
// TestEmitBenchGraph when BENCH_GRAPH_OUT names an output path.

var benchInstances = []struct {
	name string
	m, n int
}{
	{"HB_2_3", 2, 3}, // 96 nodes
	{"HB_3_3", 3, 3}, // 192 nodes
	{"HB_2_4", 2, 4}, // 256 nodes
}

// BenchmarkBFSKernel measures one direction-optimizing BFS with a
// reused Scratch — the steady-state per-source cost of every sweep.
// -benchmem must report 0 allocs/op.
func BenchmarkBFSKernel(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			d := core.MustNew(inst.m, inst.n).Dense()
			s := graph.NewScratch(d.Order())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist := d.BFSScratch(i%d.Order(), nil, s)
				if dist[0] == graph.Unreachable && i%d.Order() != 0 {
					b.Fatal("disconnected")
				}
			}
		})
	}
}

// BenchmarkBFSReference is the pre-kernel per-source cost: interface
// dispatch plus fresh dist/queue slices per call.
func BenchmarkBFSReference(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist := graph.BFSReference(d, i%d.Order(), nil)
				if dist[0] == graph.Unreachable && i%d.Order() != 0 {
					b.Fatal("disconnected")
				}
			}
		})
	}
}

// BenchmarkDiameterParallelScratch measures the pooled all-sources
// diameter over the kernel (scratch per worker, chunked claiming).
func BenchmarkDiameterParallelScratch(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.DiameterFormula()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := graph.Diameter(d, 0); got != want {
					b.Fatalf("diameter %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkDiameterReference replicates the pre-PR serial Diameter: one
// reference BFS per source with a full distance scan.
func BenchmarkDiameterReference(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			want := hb.DiameterFormula()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := diameterReference(d); got != want {
					b.Fatalf("diameter %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkDistanceHistogram measures the pooled all-sources histogram.
func BenchmarkDistanceHistogram(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !d.AllSourcesBits(nil, 0).Complete {
					b.Fatal("disconnected")
				}
			}
		})
	}
}

// BenchmarkDistanceHistogramReference replicates the pre-PR serial
// histogram with its inner append-growth loop.
func BenchmarkDistanceHistogramReference(b *testing.B) {
	for _, inst := range benchInstances {
		b.Run(inst.name, func(b *testing.B) {
			hb := core.MustNew(inst.m, inst.n)
			d := hb.Dense()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hist := distanceHistogramReference(d); hist == nil {
					b.Fatal("disconnected")
				}
			}
		})
	}
}

// diameterReference is the pre-PR graph.Diameter, kept verbatim for
// before/after measurement.
func diameterReference(g graph.Graph) int {
	n := g.Order()
	diam := 0
	for v := 0; v < n; v++ {
		dist := graph.BFSReference(g, v, nil)
		ecc := 0
		for _, d := range dist {
			if d == graph.Unreachable {
				return -1
			}
			if int(d) > ecc {
				ecc = int(d)
			}
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// distanceHistogramReference is the pre-PR graph.DistanceHistogram,
// kept verbatim for before/after measurement.
func distanceHistogramReference(g graph.Graph) []int64 {
	n := g.Order()
	var hist []int64
	for v := 0; v < n; v++ {
		dist := graph.BFSReference(g, v, nil)
		for _, d := range dist {
			if d == graph.Unreachable {
				return nil
			}
			for int(d) >= len(hist) {
				hist = append(hist, 0)
			}
			hist[d]++
		}
	}
	return hist
}

// benchRecord is one row of BENCH_graph.json.
type benchRecord struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Speedup     float64 `json:"speedup_vs_reference,omitempty"`
}

// benchEnv is the environment block of a BENCH_*.json artifact: the
// commit measured (with -dirty when tracked files differ from it) and
// the machine and toolchain the numbers came from.
type benchEnv struct {
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func currentBenchEnv() benchEnv {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			commit += "-dirty"
		}
	}
	return benchEnv{Commit: commit, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(), Go: runtime.Version()}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeBenchArtifact writes a BENCH_*.json artifact to path: the
// environment block, the command that regenerates the file, and the
// results.
func writeBenchArtifact(t *testing.T, path, command string, results map[string]benchRecord) {
	t.Helper()
	raw, err := json.MarshalIndent(struct {
		Env     benchEnv               `json:"env"`
		Command string                 `json:"command"`
		Results map[string]benchRecord `json:"results"`
	}{currentBenchEnv(), command, results}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// TestEmitBenchGraph writes the graph-kernel perf baseline to the file
// named by BENCH_GRAPH_OUT (skipped otherwise), pairing each kernel
// path with its retained pre-PR reference on HB(3,3) so the
// before/after ratio is recomputed — not hand-copied — on every run.
// From the repository root:
//
//	BENCH_GRAPH_OUT="$PWD/BENCH_graph.json" go test ./internal/graph -run 'TestEmitBenchGraph$' -v
func TestEmitBenchGraph(t *testing.T) {
	out := os.Getenv("BENCH_GRAPH_OUT")
	if out == "" {
		t.Skip("BENCH_GRAPH_OUT not set")
	}
	d := core.MustNew(3, 3).Dense()
	s := graph.NewScratch(d.Order())
	measure := func(f func(b *testing.B)) testing.BenchmarkResult {
		return testing.Benchmark(f)
	}
	record := func(r testing.BenchmarkResult) benchRecord {
		return benchRecord{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	pairs := []struct {
		name      string
		kernel    func(b *testing.B)
		reference func(b *testing.B)
	}{
		{
			name: "bfs_hb33",
			kernel: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.BFSScratch(i%d.Order(), nil, s)
				}
			},
			reference: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.BFSReference(d, i%d.Order(), nil)
				}
			},
		},
		{
			name: "diameter_hb33",
			kernel: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					graph.Diameter(d, 0)
				}
			},
			reference: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					diameterReference(d)
				}
			},
		},
		{
			name: "distance_histogram_hb33",
			kernel: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d.AllSourcesBits(nil, 0)
				}
			},
			reference: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					distanceHistogramReference(d)
				}
			},
		},
	}
	report := make(map[string]benchRecord)
	for _, p := range pairs {
		kr := measure(p.kernel)
		rr := measure(p.reference)
		rec := record(kr)
		if kr.NsPerOp() > 0 {
			rec.Speedup = float64(rr.NsPerOp()) / float64(kr.NsPerOp())
		}
		report[p.name] = rec
		report[p.name+"_reference"] = record(rr)
		t.Logf("%s: kernel %v, reference %v (%.2fx)", p.name, kr, rr, rec.Speedup)
	}
	writeBenchArtifact(t, out, "BENCH_GRAPH_OUT=\"$PWD/BENCH_graph.json\" go test ./internal/graph -run 'TestEmitBenchGraph$' -v", report)
}
