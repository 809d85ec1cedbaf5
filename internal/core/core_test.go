package core

import (
	"math/rand"
	"testing"

	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// boolSR is the paper's Boolean semiring ({0,1}, AND, OR, 0) with terminal
// "true" — the BFS semiring.
func boolSR() SR[bool] {
	tr := true
	return SR[bool]{
		Add:      func(a, b bool) bool { return a || b },
		Id:       false,
		Terminal: &tr,
		Mul:      func(a, b bool) bool { return a && b },
		One:      true,
	}
}

// plusTimes is the standard arithmetic semiring; no terminal, so early-exit
// must be a no-op.
func plusTimes() SR[float64] {
	return SR[float64]{
		Add: func(a, b float64) float64 { return a + b },
		Id:  0,
		Mul: func(a, b float64) float64 { return a * b },
		One: 1,
	}
}

// minPlus is the tropical semiring used by SSSP.
func minPlus() SR[float64] {
	const inf = 1e300
	return SR[float64]{
		Add: func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		},
		Id:  inf,
		Mul: func(a, b float64) float64 { return a + b },
		One: 0,
	}
}

func randCSR(rng *rand.Rand, rows, cols int, density float64) *sparse.CSR[float64] {
	var r, c []uint32
	var v []float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				r = append(r, uint32(i))
				c = append(c, uint32(j))
				v = append(v, 1+rng.Float64())
			}
		}
	}
	a, err := sparse.FromCOO(rows, cols, r, c, v, nil)
	if err != nil {
		panic(err)
	}
	return a
}

// denseMxv is the oracle: plain dense row-based multiply over the semiring.
func denseMxv(g *sparse.CSR[float64], uVal []float64, uPresent []bool, sr SR[float64]) ([]float64, []bool) {
	w := make([]float64, g.Rows)
	present := make([]bool, g.Rows)
	for i := 0; i < g.Rows; i++ {
		acc := sr.Id
		any := false
		ind, val := g.RowSpan(i)
		for k := range ind {
			if uPresent[ind[k]] {
				acc = sr.Add(acc, sr.Mul(val[k], uVal[ind[k]]))
				any = true
			}
		}
		if any {
			w[i] = acc
			present[i] = true
		}
	}
	return w, present
}

func sparseToDense(n int, ind []uint32, val []float64) ([]float64, []bool) {
	v := make([]float64, n)
	p := make([]bool, n)
	for i, idx := range ind {
		v[idx] = val[i]
		p[idx] = true
	}
	return v, p
}

func denseToSparse(val []float64, present []bool) ([]uint32, []float64) {
	var ind []uint32
	var out []float64
	for i := range val {
		if present[i] {
			ind = append(ind, uint32(i))
			out = append(out, val[i])
		}
	}
	return ind, out
}

func randVector(rng *rand.Rand, n int, density float64) ([]float64, []bool) {
	v := make([]float64, n)
	p := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v[i] = 1 + rng.Float64()
			p[i] = true
		}
	}
	return v, p
}

// bitmapView wraps raw value/presence arrays as a bitmap VecView,
// recounting the presence bits.
func bitmapView[T comparable](val []T, present []bool) VecView[T] {
	c := 0
	for _, p := range present {
		if p {
			c++
		}
	}
	return BitmapVec(val, present, c)
}

func TestRowMxvMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.15)
		uVal, uPresent := randVector(rng, n, 0.4)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		for _, sr := range []SR[float64]{plusTimes(), minPlus()} {
			wantV, wantP := denseMxv(g, uVal, uPresent, sr)
			// Bitmap view (the direct layout) and sparse view (kernel-side
			// materialization into workspace scratch) must agree.
			for _, uv := range []VecView[float64]{
				bitmapView(uVal, uPresent),
				SparseVec(n, uInd, uSparse),
			} {
				w := make([]float64, n)
				p := make([]bool, n)
				RowMxv(w, p, g, uv, sr, Opts{})
				for i := 0; i < n; i++ {
					if p[i] != wantP[i] {
						t.Fatalf("trial %d %v: presence[%d]=%v want %v", trial, uv.Kind, i, p[i], wantP[i])
					}
					if p[i] && !close(w[i], wantV[i]) {
						t.Fatalf("trial %d %v: w[%d]=%g want %g", trial, uv.Kind, i, w[i], wantV[i])
					}
				}
			}
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestColMxvAllMergeStrategiesMatchOracle checks both push outputs — the
// radix-sorted list and the bitmap scatter — against the dense oracle, from
// a sparse view (direct gather) and a bitmap view (kernel-side compaction
// into an index list).
func TestColMxvAllMergeStrategiesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.15)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.3)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		sr := plusTimes()
		wantV, wantP := denseMxv(g, uVal, uPresent, sr)
		for _, uv := range []VecView[float64]{
			SparseVec(n, uInd, uSparse),
			bitmapView(uVal, uPresent),
		} {
			wInd, wVal := ColMxv(cscG, uv, sr, Opts{})
			for k := 1; k < len(wInd); k++ {
				if wInd[k-1] >= wInd[k] {
					t.Fatalf("trial %d %v: output indices unsorted", trial, uv.Kind)
				}
			}
			radixV, radixP := sparseToDense(n, wInd, wVal)
			bitmapV, bitmapP := make([]float64, n), make([]bool, n)
			ColMxvBitmap(bitmapV, bitmapP, cscG, uv, MaskView{}, false, sr, Opts{})
			for _, out := range []struct {
				name string
				v    []float64
				p    []bool
			}{{"radix", radixV, radixP}, {"bitmap", bitmapV, bitmapP}} {
				for i := 0; i < n; i++ {
					if out.p[i] != wantP[i] {
						t.Fatalf("trial %d %s %v: presence[%d]=%v want %v", trial, out.name, uv.Kind, i, out.p[i], wantP[i])
					}
					if out.p[i] && !close(out.v[i], wantV[i]) {
						t.Fatalf("trial %d %s %v: w[%d]=%g want %g", trial, out.name, uv.Kind, i, out.v[i], wantV[i])
					}
				}
			}
		}
	}
}

func TestMaskedVariantsRespectMask(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.2)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.5)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		maskBits := make([]bool, n)
		for i := range maskBits {
			maskBits[i] = rng.Intn(2) == 0
		}
		for _, scmp := range []bool{false, true} {
			mask := MaskView{Bits: maskBits, Scmp: scmp}
			sr := plusTimes()
			wantV, wantP := denseMxv(g, uVal, uPresent, sr)
			for i := 0; i < n; i++ {
				if !mask.Allows(i) {
					wantP[i] = false
				}
			}
			// Row masked.
			w := make([]float64, n)
			p := make([]bool, n)
			RowMaskedMxv(w, p, g, bitmapView(uVal, uPresent), mask, sr, Opts{})
			for i := 0; i < n; i++ {
				if p[i] != wantP[i] || (p[i] && !close(w[i], wantV[i])) {
					t.Fatalf("trial %d scmp=%v row: mismatch at %d", trial, scmp, i)
				}
			}
			// Row masked via list.
			var list []uint32
			for i := 0; i < n; i++ {
				if mask.Allows(i) {
					list = append(list, uint32(i))
				}
			}
			w2 := make([]float64, n)
			p2 := make([]bool, n)
			RowMaskedMxv(w2, p2, g, bitmapView(uVal, uPresent), MaskView{Bits: maskBits, Scmp: scmp, List: list}, sr, Opts{})
			for i := 0; i < n; i++ {
				if p2[i] != wantP[i] || (p2[i] && !close(w2[i], wantV[i])) {
					t.Fatalf("trial %d scmp=%v row-list: mismatch at %d", trial, scmp, i)
				}
			}
			// Column masked.
			wInd, wVal := ColMaskedMxv(cscG, SparseVec(n, uInd, uSparse), mask, sr, Opts{})
			gotV, gotP := sparseToDense(n, wInd, wVal)
			for i := 0; i < n; i++ {
				if gotP[i] != wantP[i] || (gotP[i] && !close(gotV[i], wantV[i])) {
					t.Fatalf("trial %d scmp=%v col: mismatch at %d", trial, scmp, i)
				}
			}
		}
	}
}

func TestEarlyExitPreservesBooleanResults(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sr := boolSR()
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		gf := randCSR(rng, n, n, 0.2)
		g := sparse.Fill(gf, true)
		uPresent := make([]bool, n)
		uVal := make([]bool, n)
		for i := range uPresent {
			if rng.Intn(3) == 0 {
				uPresent[i] = true
				uVal[i] = true
			}
		}
		maskBits := make([]bool, n)
		for i := range maskBits {
			maskBits[i] = rng.Intn(2) == 0
		}
		mask := MaskView{Bits: maskBits, Scmp: true}
		run := func(opts Opts, workers int) ([]bool, []bool) {
			defer par.SetMaxWorkers(par.SetMaxWorkers(workers))
			w := make([]bool, n)
			p := make([]bool, n)
			RowMaskedMxv(w, p, g, bitmapView(uVal, uPresent), mask, sr, opts)
			return w, p
		}
		baseW, baseP := run(Opts{}, par.MaxWorkers())
		for _, c := range []struct {
			opts    Opts
			workers int
		}{
			{Opts{EarlyExit: true}, par.MaxWorkers()},
			{Opts{StructureOnly: true}, par.MaxWorkers()},
			{Opts{EarlyExit: true, StructureOnly: true}, par.MaxWorkers()},
			{Opts{EarlyExit: true, StructureOnly: true}, 1},
		} {
			opts := c.opts
			w, p := run(opts, c.workers)
			for i := 0; i < n; i++ {
				if p[i] != baseP[i] || (p[i] && w[i] != baseW[i]) {
					t.Fatalf("trial %d opts %+v: diverges at %d", trial, opts, i)
				}
			}
		}
	}
}

func TestEarlyExitIgnoredWithoutTerminal(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 30
	g := randCSR(rng, n, n, 0.3)
	uVal, uPresent := randVector(rng, n, 0.8)
	sr := plusTimes() // no terminal
	w1 := make([]float64, n)
	p1 := make([]bool, n)
	RowMxv(w1, p1, g, bitmapView(uVal, uPresent), sr, Opts{})
	w2 := make([]float64, n)
	p2 := make([]bool, n)
	RowMxv(w2, p2, g, bitmapView(uVal, uPresent), sr, Opts{EarlyExit: true})
	for i := 0; i < n; i++ {
		if p1[i] != p2[i] || (p1[i] && !close(w1[i], w2[i])) {
			t.Fatalf("early-exit changed plus-times result at %d", i)
		}
	}
}

func TestStructureOnlyColumnEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sr := boolSR()
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		gf := randCSR(rng, n, n, 0.2)
		g := sparse.Fill(gf, true)
		cscG := sparse.Transpose(g)
		var uInd []uint32
		var uVal []bool
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				uInd = append(uInd, uint32(i))
				uVal = append(uVal, true)
			}
		}
		aInd, aVal := ColMxv(cscG, SparseVec(n, uInd, uVal), sr, Opts{})
		bInd, bVal := ColMxv(cscG, SparseVec(n, uInd, uVal), sr, Opts{StructureOnly: true})
		if len(aInd) != len(bInd) {
			t.Fatalf("trial %d: nnz %d vs %d", trial, len(aInd), len(bInd))
		}
		for i := range aInd {
			if aInd[i] != bInd[i] || aVal[i] != bVal[i] {
				t.Fatalf("trial %d: entry %d differs", trial, i)
			}
		}
	}
}

func TestCountedKernelsMatchUncounted(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.2)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.4)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		sr := plusTimes()
		var c Counter

		w1 := make([]float64, n)
		p1 := make([]bool, n)
		RowMxv(w1, p1, g, bitmapView(uVal, uPresent), sr, Opts{})
		w2 := make([]float64, n)
		p2 := make([]bool, n)
		RowMxvCounted(w2, p2, g, uVal, uPresent, sr, Opts{}, &c)
		for i := range w1 {
			if p1[i] != p2[i] || (p1[i] && !close(w1[i], w2[i])) {
				t.Fatalf("trial %d: counted row kernel diverges at %d", trial, i)
			}
		}
		if c.MatrixAccesses == 0 && g.NNZ() > 0 {
			t.Fatal("counted kernel recorded no matrix accesses")
		}

		// Both push outputs against the counted twin's heap merge.
		var c2 Counter
		i2, v2 := ColMxvCounted(cscG, uInd, uSparse, sr, Opts{}, &c2)
		i1, v1 := ColMxv(cscG, SparseVec(n, uInd, uSparse), sr, Opts{})
		if len(i1) != len(i2) {
			t.Fatalf("trial %d: counted col kernel nnz %d vs %d", trial, len(i2), len(i1))
		}
		for k := range i1 {
			if i1[k] != i2[k] || !close(v1[k], v2[k]) {
				t.Fatalf("trial %d: counted col kernel diverges at %d", trial, k)
			}
		}
		bv, bp := make([]float64, n), make([]bool, n)
		if nv := ColMxvBitmap(bv, bp, cscG, SparseVec(n, uInd, uSparse), MaskView{}, false, sr, Opts{}); nv != len(i2) {
			t.Fatalf("trial %d: bitmap push nnz %d vs counted %d", trial, nv, len(i2))
		}
		for k, i := range i2 {
			if !bp[i] || !close(bv[i], v2[k]) {
				t.Fatalf("trial %d: bitmap push diverges from counted at %d", trial, i)
			}
		}
	}
}

func TestCounterScaling(t *testing.T) {
	// The RAM-model counts must reproduce Table 1's shape: row unmasked
	// flat in nnz(f); row masked linear in nnz(m); column linear in nnz(f).
	rng := rand.New(rand.NewSource(27))
	n := 2000
	g := randCSR(rng, n, n, 0.01)
	cscG := sparse.Transpose(g)
	sr := plusTimes()

	countRow := func(density float64) int64 {
		uVal, uPresent := randVector(rng, n, density)
		var c Counter
		w := make([]float64, n)
		p := make([]bool, n)
		RowMxvCounted(w, p, g, uVal, uPresent, sr, Opts{}, &c)
		return c.MatrixAccesses
	}
	lo, hi := countRow(0.01), countRow(0.9)
	if lo != hi {
		t.Fatalf("row unmasked matrix accesses vary with input sparsity: %d vs %d", lo, hi)
	}

	countCol := func(density float64) int64 {
		uVal, uPresent := randVector(rng, n, density)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		var c Counter
		ColMxvCounted(cscG, uInd, uSparse, sr, Opts{}, &c)
		return c.MatrixAccesses
	}
	if c1, c9 := countCol(0.1), countCol(0.9); c9 < 5*c1 {
		t.Fatalf("column accesses should scale with nnz(f): %d vs %d", c1, c9)
	}

	countMaskedRow := func(density float64) int64 {
		uVal, uPresent := randVector(rng, n, 1.0)
		maskBits := make([]bool, n)
		var list []uint32
		for i := range maskBits {
			if rng.Float64() < density {
				maskBits[i] = true
				list = append(list, uint32(i))
			}
		}
		var c Counter
		w := make([]float64, n)
		p := make([]bool, n)
		RowMaskedMxvCounted(w, p, g, uVal, uPresent, MaskView{Bits: maskBits, List: list}, sr, Opts{}, &c)
		return c.MatrixAccesses
	}
	if m1, m9 := countMaskedRow(0.1), countMaskedRow(0.9); m9 < 5*m1 {
		t.Fatalf("masked row accesses should scale with nnz(m): %d vs %d", m1, m9)
	}
}

func TestColMxvEmptyInput(t *testing.T) {
	g := randCSR(rand.New(rand.NewSource(28)), 10, 10, 0.3)
	cscG := sparse.Transpose(g)
	ind, val := ColMxv(cscG, SparseVec[float64](10, nil, nil), plusTimes(), Opts{})
	if len(ind) != 0 || len(val) != 0 {
		t.Fatal("empty input produced output")
	}
}

func TestSRSaturated(t *testing.T) {
	sr := boolSR()
	if !sr.Saturated(true) || sr.Saturated(false) {
		t.Fatal("bool semiring saturation wrong")
	}
	pt := plusTimes()
	if pt.Saturated(1) {
		t.Fatal("plus-times has no terminal")
	}
}

func TestCounterAddTotal(t *testing.T) {
	a := Counter{MatrixAccesses: 1, VectorAccesses: 2, MaskAccesses: 3, MergeOps: 4}
	b := Counter{MatrixAccesses: 10, VectorAccesses: 20, MaskAccesses: 30, MergeOps: 40}
	a.Add(b)
	if a.Total() != 110 {
		t.Fatalf("Total=%d want 110", a.Total())
	}
}

func TestDirectionString(t *testing.T) {
	if Push.String() != "push" || Pull.String() != "pull" {
		t.Fatal("Direction.String mismatch")
	}
}

func randSymCSR(rng *rand.Rand, n int, p float64) *sparse.CSR[bool] {
	var r, c []uint32
	var v []bool
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				r = append(r, uint32(i), uint32(j))
				c = append(c, uint32(j), uint32(i))
				v = append(v, true, true)
			}
		}
	}
	g, err := sparse.FromCOO(n, n, r, c, v, func(a, b bool) bool { return a })
	if err != nil {
		panic(err)
	}
	return g
}

func TestSequentialColumnKernelsMatchParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	sr := SR[float64]{
		Add: func(a, b float64) float64 { return a + b },
		Id:  0,
		Mul: func(a, b float64) float64 { return a * b },
		One: 1,
	}
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(60)
		gb := randSymCSR(rng, n, 0.15)
		g := sparse.Fill(gb, 1.5)
		var uInd []uint32
		var uVal []float64
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				uInd = append(uInd, uint32(i))
				uVal = append(uVal, rng.Float64())
			}
		}
		pi, pv := ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{})
		prev := par.SetMaxWorkers(1)
		si, sv := ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{})
		par.SetMaxWorkers(prev)
		if len(pi) != len(si) {
			t.Fatalf("trial %d: nnz %d vs %d", trial, len(pi), len(si))
		}
		for k := range pi {
			if pi[k] != si[k] || pv[k] != sv[k] {
				t.Fatalf("trial %d: entry %d differs", trial, k)
			}
		}
		// Structure-only sequential path too.
		pi, _ = ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{StructureOnly: true})
		prev = par.SetMaxWorkers(1)
		si, _ = ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{StructureOnly: true})
		par.SetMaxWorkers(prev)
		if len(pi) != len(si) {
			t.Fatalf("trial %d structure-only: nnz differs", trial)
		}
		for k := range pi {
			if pi[k] != si[k] {
				t.Fatalf("trial %d structure-only: index %d differs", trial, k)
			}
		}
	}
}
