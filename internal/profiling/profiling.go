// Package profiling wires -cpuprofile/-memprofile flags into the CLI
// commands, mirroring `go test`'s flags so the sweep binaries can be
// profiled in production the same way the benchmarks are: hbcheck and
// hbtables both drive the graph kernels hard enough that a pprof
// capture of a real run is the first diagnostic to reach for. Env is
// the machine record that every BENCH_*.json artifact carries.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath; an empty path disables
// profiling. The returned stop function flushes and closes the profile
// and must run before process exit (it is a no-op when disabled).
func Start(cpuPath string) (stop func(), err error) {
	if cpuPath == "" {
		return func() {}, nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap dumps a GC-settled heap profile to memPath; an empty path
// is a no-op. Run it at the end of the workload, after Start's stop.
func WriteHeap(memPath string) error {
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	defer f.Close()
	runtime.GC() // settle retained-heap numbers before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return nil
}
