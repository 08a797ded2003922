package noc

import (
	"testing"

	"repro/internal/core"
)

// TestNoCSteadyStateAllocs is the zero-alloc gate for the engine: after
// one warm run has grown the worm arena, per-shard work lists, and wait
// queues to their high-water marks, repeated Run() calls on the same
// Engine must not allocate. Workers is pinned to 1 so the measurement
// exercises the serial path (spawning worker goroutines allocates by
// definition; the parallel path shares every data structure measured
// here).
func TestNoCSteadyStateAllocs(t *testing.T) {
	hb := core.MustNew(2, 3)
	e, err := New(hb, Config{
		Cycles: 400, Rate: 0.4, PacketLen: 4, BufDepth: 2, VCs: 4,
		MaxRoute: hb.DiameterFormula(), Adaptive: hbAdaptive(hb),
		Seed: 9, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	warm := checkSteadyStateAllocs(t, e)
	if warm.Delivered == 0 || warm.Escapes == 0 {
		t.Fatalf("warm run too quiet to be a meaningful gate: %+v", warm)
	}
}

// TestNoCObliviousSteadyStateAllocs: the oblivious mode meets the same
// gate, since Config.Route appends into a per-shard buffer.
func TestNoCObliviousSteadyStateAllocs(t *testing.T) {
	hb := core.MustNew(2, 3)
	e, err := New(hb, Config{
		Cycles: 400, Rate: 0.4, PacketLen: 4, BufDepth: 2, VCs: 2,
		MaxRoute: hb.DiameterFormula(), Route: hb.AppendRoute, Policy: HBDateline(hb),
		Seed: 9, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm := checkSteadyStateAllocs(t, e); warm.Delivered == 0 {
		t.Fatalf("warm run delivered nothing: %+v", warm)
	}
}

// checkSteadyStateAllocs runs e once to warm it, fails unless further
// runs allocate nothing, and returns the warm run's result.
func checkSteadyStateAllocs(t *testing.T, e *Engine) Result {
	t.Helper()
	warm, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state Run allocates %v per run, want 0", avg)
	}
	return warm
}
