package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"pushpull/internal/sparse"
)

// TestKernelsWithWorkspaceMatchFresh runs every kernel variant twice with a
// pinned, shared workspace and checks the results are bit-identical to the
// workspace-free path (Opts.Ws == nil). Running twice matters: the second
// call reuses every buffer the first call dirtied, so stale state (the
// view-materialization presence array, leftover gather contents) would
// surface as a mismatch.
func TestKernelsWithWorkspaceMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sr := plusTimes()
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		g := randCSR(rng, n, n, 0.2)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.3)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		maskBits := make([]bool, n)
		for i := range maskBits {
			maskBits[i] = rng.Intn(2) == 0
		}
		mask := MaskView{Words: wordsOf(maskBits), Scmp: trial%2 == 0}

		wsOpts := Opts{Ws: NewWorkspace(n, n)}

		for rep := 0; rep < 2; rep++ {
			// Row unmasked.
			w1 := make([]float64, n)
			p1 := make([]bool, n)
			nv1 := RowMxv(w1, p1, g, bitsetView(uVal, uPresent), sr, wsOpts)
			w2 := make([]float64, n)
			p2 := make([]bool, n)
			nv2 := RowMxv(w2, p2, g, bitsetView(uVal, uPresent), sr, Opts{})
			if nv1 != nv2 {
				t.Fatalf("trial %d rep %d: RowMxv nvals %d != %d", trial, rep, nv1, nv2)
			}
			compareDense(t, "RowMxv", w1, p1, w2, p2)

			// Row masked.
			m1 := make([]float64, n)
			q1 := make([]bool, n)
			mv1 := RowMaskedMxv(m1, q1, g, bitsetView(uVal, uPresent), mask, sr, wsOpts)
			m2 := make([]float64, n)
			q2 := make([]bool, n)
			mv2 := RowMaskedMxv(m2, q2, g, bitsetView(uVal, uPresent), mask, sr, Opts{})
			if mv1 != mv2 {
				t.Fatalf("trial %d rep %d: RowMaskedMxv nvals %d != %d", trial, rep, mv1, mv2)
			}
			compareDense(t, "RowMaskedMxv", m1, q1, m2, q2)

			// Column unmasked + masked.
			i1, v1 := ColMxv(cscG, SparseVec(n, uInd, uSparse), sr, wsOpts)
			i2, v2 := ColMxv(cscG, SparseVec(n, uInd, uSparse), sr, Opts{})
			compareSparse(t, "ColMxv", i1, v1, i2, v2)

			j1, x1 := ColMaskedMxv(cscG, SparseVec(n, uInd, uSparse), mask, sr, wsOpts)
			j2, x2 := ColMaskedMxv(cscG, SparseVec(n, uInd, uSparse), mask, sr, Opts{})
			compareSparse(t, "ColMaskedMxv", j1, x1, j2, x2)
		}
	}
}

// clearBoolsTest resets a presence bitmap between ColMxvBitmap runs (the
// kernel contract wants it cleared on entry).
func clearBoolsTest(p []bool) {
	for i := range p {
		p[i] = false
	}
}

func compareDense(t *testing.T, name string, w1 []float64, p1 []bool, w2 []float64, p2 []bool) {
	t.Helper()
	for i := range w1 {
		if p1[i] != p2[i] {
			t.Fatalf("%s: presence mismatch at %d: %v vs %v", name, i, p1[i], p2[i])
		}
		if p1[i] && w1[i] != w2[i] {
			t.Fatalf("%s: value mismatch at %d: %v vs %v", name, i, w1[i], w2[i])
		}
	}
}

func compareSparse(t *testing.T, name string, i1 []uint32, v1 []float64, i2 []uint32, v2 []float64) {
	t.Helper()
	if len(i1) != len(i2) {
		t.Fatalf("%s: nnz mismatch %d vs %d", name, len(i1), len(i2))
	}
	for k := range i1 {
		if i1[k] != i2[k] || v1[k] != v2[k] {
			t.Fatalf("%s: entry %d mismatch (%d,%v) vs (%d,%v)", name, k, i1[k], v1[k], i2[k], v2[k])
		}
	}
}

// TestColMaskedMxvDegenerateMasks covers the empty-mask fast paths: an
// empty complemented mask allows everything (result must equal the unmasked
// product, filter skipped), an empty plain mask allows nothing.
func TestColMaskedMxvDegenerateMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sr := plusTimes()
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.2)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.4)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		empty := MaskView{Words: wordsOf(make([]bool, n)), KnownEmpty: true}

		wantInd, wantVal := ColMxv(cscG, SparseVec(n, uInd, uSparse), sr, Opts{})

		allowAll := empty
		allowAll.Scmp = true
		gotInd, gotVal := ColMaskedMxv(cscG, SparseVec(n, uInd, uSparse), allowAll, sr, Opts{})
		compareSparse(t, "empty-complement", gotInd, gotVal, wantInd, wantVal)

		noneInd, _ := ColMaskedMxv(cscG, SparseVec(n, uInd, uSparse), empty, sr, Opts{})
		if len(noneInd) != 0 {
			t.Fatalf("empty plain mask produced %d entries, want 0", len(noneInd))
		}

		// Same degenerate masks through the row kernels.
		w := make([]float64, n)
		p := make([]bool, n)
		RowMaskedMxv(w, p, g, bitsetView(uVal, uPresent), allowAll, sr, Opts{})
		w2 := make([]float64, n)
		p2 := make([]bool, n)
		RowMxv(w2, p2, g, bitsetView(uVal, uPresent), sr, Opts{})
		compareDense(t, "row empty-complement", w, p, w2, p2)

		nv := RowMaskedMxv(w, p, g, bitsetView(uVal, uPresent), empty, sr, Opts{})
		if nv != 0 {
			t.Fatalf("row empty plain mask reported %d outputs, want 0", nv)
		}
		for i := range p {
			if p[i] {
				t.Fatalf("row empty plain mask left output %d present", i)
			}
		}
	}
}

// TestKernelSteadyStateAllocs is the zero-allocation regression guard for
// all four kernel variants: with a pinned workspace, a warmed-up kernel
// call must not allocate at all.
func TestKernelSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(3))
	n := 256
	g := randCSR(rng, n, n, 0.05)
	cscG := sparse.Transpose(g)
	uVal, uPresent := randVector(rng, n, 0.3)
	uInd, uSparse := denseToSparse(uVal, uPresent)
	maskBits := make([]bool, n)
	for i := range maskBits {
		maskBits[i] = i%3 == 0
	}
	mask := MaskView{Words: wordsOf(maskBits), Scmp: true}
	uWords := wordsOf(uPresent)
	sr := plusTimes()
	ws := NewWorkspace(n, n)
	opts := Opts{Ws: ws}
	w := make([]float64, n)
	p := make([]bool, n)

	cases := []struct {
		name string
		run  func()
	}{
		{"RowMxv", func() { RowMxv(w, p, g, BitsetVec(uVal, uWords, 0), sr, opts) }},
		{"RowMxv-sparse-view", func() { RowMxv(w, p, g, SparseVec(n, uInd, uSparse), sr, opts) }},
		{"RowMaskedMxv", func() { RowMaskedMxv(w, p, g, BitsetVec(uVal, uWords, 0), mask, sr, opts) }},
		{"ColMxv", func() { ColMxv(cscG, SparseVec(n, uInd, uSparse), sr, opts) }},
		{"ColMxv-bitset-view", func() { ColMxv(cscG, BitsetVec(uVal, uWords, 0), sr, opts) }},
		{"ColMaskedMxv", func() { ColMaskedMxv(cscG, SparseVec(n, uInd, uSparse), mask, sr, opts) }},
		{"ColMxvBitmap", func() {
			clearBoolsTest(p)
			ColMxvBitmap(w, p, cscG, SparseVec(n, uInd, uSparse), mask, true, sr, opts)
		}},
	}
	for _, tc := range cases {
		tc.run() // warm the workspace
		if avg := testing.AllocsPerRun(20, tc.run); avg != 0 {
			t.Errorf("%s: %v allocs per warmed call, want 0", tc.name, avg)
		}
	}
}
