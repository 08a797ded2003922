//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/graph"
)

// TestDenseFreedWithInstance: the adjacency Dense builds lives in the
// instance, so dropping the last reference to an instance frees it and
// the adjacencies of both it and its butterfly factor. A cache keyed by
// instance pointer would keep all of them alive forever.
func TestDenseFreedWithInstance(t *testing.T) {
	inst, dense, factor := buildAndDrop()
	runtime.GC()
	if inst.Value() != nil {
		t.Error("unreferenced HB(2,3) survived a GC")
	}
	if dense.Value() != nil {
		t.Error("adjacency of an unreferenced HB(2,3) survived a GC")
	}
	if factor.Value() != nil {
		t.Error("adjacency of an unreferenced B_3 factor survived a GC")
	}
}

func buildAndDrop() (weak.Pointer[HyperButterfly], weak.Pointer[graph.Dense], weak.Pointer[graph.Dense]) {
	hb := MustNew(2, 3)
	return weak.Make(hb), weak.Make(hb.Dense()), weak.Make(hb.bf.Dense())
}
