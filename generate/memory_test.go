package generate_test

import (
	"runtime"
	"testing"
	"unsafe"

	"pushpull/generate"
)

// TestBuildTransientMemory bounds what constructing a graph allocates, as a
// multiple of what it keeps — Ptr and Ind; a pattern stores no values. The
// packed edge list, the builder's two counting passes (one 4-byte word per
// entry bucketed by column, then Ptr and Ind at exactly their final size)
// and their per-span counters come to 3.5–3.8× that on kron:14, more spans
// costing more counters; the triple-slice + radix-permutation path the
// edge-list builder replaced allocated 11× (of arrays that then included a
// value per entry), and a materialised transpose alone would add another 1×.
func TestBuildTransientMemory(t *testing.T) {
	build := dataset(14, "kron")
	if _, err := build(); err != nil { // warm: par workers, one-time runtime state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	csr := g.CSR()
	if csr.Val != nil {
		t.Error("a generated graph must be pattern-only")
	}
	kept := uint64(len(csr.Ptr))*uint64(unsafe.Sizeof(csr.Ptr[0])) + 4*uint64(len(csr.Ind))
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 4*kept {
		t.Errorf("building kron:14 allocated %d bytes, %.1f× the %d it keeps; want at most 4×",
			allocated, float64(allocated)/float64(kept), kept)
	}
	if !g.Symmetric() || g.CSC() != csr {
		t.Error("an undirected graph must serve its CSR as its CSC, not a second copy")
	}

	wm, err := generate.WeightedCopy(g, 1, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	w := wm.CSR()
	if &w.Ptr[0] != &csr.Ptr[0] || &w.Ind[0] != &csr.Ind[0] {
		t.Error("WeightedCopy must share the pattern's Ptr and Ind, not copy them")
	}
	if wm.CSC() != w {
		t.Error("the weighted copy of a symmetric pattern must alias its own CSC")
	}
}
