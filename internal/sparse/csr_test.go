package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustFromCOO[T any](t *testing.T, nr, nc int, rows, cols []uint32, vals []T, dup func(T, T) T) *CSR[T] {
	t.Helper()
	a, err := FromCOO(nr, nc, rows, cols, vals, dup)
	if err != nil {
		t.Fatalf("FromCOO: %v", err)
	}
	if err := Validate(a); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return a
}

func TestFromCOOBasic(t *testing.T) {
	//   [ .  1  . ]
	//   [ 2  .  3 ]
	//   [ .  .  4 ]
	rows := []uint32{1, 0, 2, 1}
	cols := []uint32{0, 1, 2, 2}
	vals := []float64{2, 1, 4, 3}
	a := mustFromCOO(t, 3, 3, rows, cols, vals, nil)
	if a.NNZ() != 4 {
		t.Fatalf("nnz=%d want 4", a.NNZ())
	}
	ind, val := a.RowSpan(1)
	if len(ind) != 2 || ind[0] != 0 || ind[1] != 2 || val[0] != 2 || val[1] != 3 {
		t.Fatalf("row 1 = %v %v", ind, val)
	}
	if a.RowLen(0) != 1 || a.RowLen(2) != 1 {
		t.Fatal("wrong row lengths")
	}
}

func TestFromCOODuplicateFolding(t *testing.T) {
	rows := []uint32{0, 0, 0, 1, 0}
	cols := []uint32{1, 1, 2, 0, 1}
	vals := []int{5, 7, 1, 9, 3}
	sum := func(a, b int) int { return a + b }
	a := mustFromCOO(t, 2, 3, rows, cols, vals, sum)
	if a.NNZ() != 3 {
		t.Fatalf("nnz=%d want 3", a.NNZ())
	}
	ind, val := a.RowSpan(0)
	if ind[0] != 1 || val[0] != 15 {
		t.Fatalf("folded (0,1)=%d want 15", val[0])
	}
	// nil dup keeps last write (input order is not guaranteed among equal
	// keys after the radix sorts, but our sorts are stable so the last
	// original triple wins).
	b := mustFromCOO(t, 2, 3, rows, cols, vals, nil)
	ind, val = b.RowSpan(0)
	if ind[0] != 1 || val[0] != 3 {
		t.Fatalf("last-write (0,1)=%d want 3", val[0])
	}
}

func TestFromCOOErrors(t *testing.T) {
	if _, err := FromCOO(2, 2, []uint32{5}, []uint32{0}, []int{1}, nil); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := FromCOO(2, 2, []uint32{0}, []uint32{9}, []int{1}, nil); err == nil {
		t.Fatal("out-of-range col accepted")
	}
	if _, err := FromCOO(2, 2, []uint32{0, 1}, []uint32{0}, []int{1}, nil); err == nil {
		t.Fatal("mismatched slices accepted")
	}
	if _, err := FromCOO(-1, 2, nil, nil, []int{}, nil); err == nil {
		t.Fatal("negative dimension accepted")
	}
	if a, err := FromCOO(0, 0, nil, nil, []int{}, nil); err != nil || a.NNZ() != 0 {
		t.Fatalf("empty matrix: %v", err)
	}
}

func randomCOO(rng *rand.Rand, nr, nc, n int) ([]uint32, []uint32, []float64) {
	rows := make([]uint32, n)
	cols := make([]uint32, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = uint32(rng.Intn(nr))
		cols[i] = uint32(rng.Intn(nc))
		vals[i] = rng.Float64()
	}
	return rows, cols, vals
}

func TestFromCOOAgainstDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nr, nc := 1+rng.Intn(20), 1+rng.Intn(20)
		n := rng.Intn(4 * nr * nc / 3)
		rows, cols, vals := randomCOO(rng, nr, nc, n)
		sum := func(a, b float64) float64 { return a + b }
		a := mustFromCOO(t, nr, nc, rows, cols, vals, sum)
		dense := make([][]float64, nr)
		present := make([][]bool, nr)
		for i := range dense {
			dense[i] = make([]float64, nc)
			present[i] = make([]bool, nc)
		}
		for i := 0; i < n; i++ {
			dense[rows[i]][cols[i]] += vals[i]
			present[rows[i]][cols[i]] = true
		}
		got := 0
		for r := 0; r < nr; r++ {
			ind, val := a.RowSpan(r)
			for k := range ind {
				c := ind[k]
				if !present[r][c] {
					t.Fatalf("trial %d: spurious entry (%d,%d)", trial, r, c)
				}
				if diff := dense[r][c] - val[k]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d: (%d,%d)=%g want %g", trial, r, c, val[k], dense[r][c])
				}
				got++
			}
		}
		want := 0
		for r := range present {
			for c := range present[r] {
				if present[r][c] {
					want++
				}
			}
		}
		if got != want {
			t.Fatalf("trial %d: nnz=%d want %d", trial, got, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(30), 1+rng.Intn(30)
		rows, cols, vals := randomCOO(rng, nr, nc, rng.Intn(200))
		a, err := FromCOO(nr, nc, rows, cols, vals, func(x, y float64) float64 { return x + y })
		if err != nil {
			return false
		}
		tt := Transpose(Transpose(a))
		if tt.Rows != a.Rows || tt.Cols != a.Cols || tt.NNZ() != a.NNZ() {
			return false
		}
		for i := range a.Ptr {
			if a.Ptr[i] != tt.Ptr[i] {
				return false
			}
		}
		for i := range a.Ind {
			if a.Ind[i] != tt.Ind[i] || a.Val[i] != tt.Val[i] {
				return false
			}
		}
		return Validate(Transpose(a)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMovesEntries(t *testing.T) {
	rows := []uint32{0, 1, 2}
	cols := []uint32{2, 0, 1}
	vals := []int{10, 20, 30}
	a := mustFromCOO(t, 3, 3, rows, cols, vals, nil)
	at := Transpose(a)
	ind, val := at.RowSpan(2)
	if len(ind) != 1 || ind[0] != 0 || val[0] != 10 {
		t.Fatalf("transpose row 2 = %v %v", ind, val)
	}
}

func TestPatternSymmetric(t *testing.T) {
	// Symmetric pattern (values may differ).
	rows := []uint32{0, 1, 1, 2}
	cols := []uint32{1, 0, 2, 1}
	vals := []int{1, 2, 3, 4}
	a := mustFromCOO(t, 3, 3, rows, cols, vals, nil)
	if !PatternSymmetric(a) {
		t.Fatal("symmetric pattern not detected")
	}
	b := mustFromCOO(t, 3, 3, []uint32{0}, []uint32{1}, []int{1}, nil)
	if PatternSymmetric(b) {
		t.Fatal("asymmetric pattern reported symmetric")
	}
	c := mustFromCOO(t, 2, 3, []uint32{0}, []uint32{1}, []int{1}, nil)
	if PatternSymmetric(c) {
		t.Fatal("non-square matrix reported symmetric")
	}
}

func TestDegreeStats(t *testing.T) {
	rows := []uint32{0, 0, 0, 1}
	cols := []uint32{0, 1, 2, 0}
	vals := []bool{true, true, true, true}
	a := mustFromCOO(t, 3, 3, rows, cols, vals, nil)
	if MaxRowLen(a) != 3 {
		t.Fatalf("MaxRowLen=%d want 3", MaxRowLen(a))
	}
	if avg := AvgRowLen(a); avg < 1.33 || avg > 1.34 {
		t.Fatalf("AvgRowLen=%g want 4/3", avg)
	}
	var empty CSR[bool]
	if AvgRowLen(&empty) != 0 {
		t.Fatal("empty matrix should have zero average degree")
	}
}

func TestFill(t *testing.T) {
	a, err := FromEdges[bool](2, 2, []uint64{PackEdge(0, 1)}, true)
	if err != nil {
		t.Fatal(err)
	}
	w := Fill(a, 2.5)
	if len(w.Val) != 2 || w.Val[0] != 2.5 || w.Val[1] != 2.5 {
		t.Fatalf("Fill values = %v", w.Val)
	}
	if w.NNZ() != a.NNZ() || w.Rows != a.Rows {
		t.Fatal("Fill changed shape")
	}
	// Only Val is new: the doc promises values attached, not three copies.
	if &w.Ptr[0] != &a.Ptr[0] || &w.Ind[0] != &a.Ind[0] {
		t.Fatal("Fill copied Ptr/Ind instead of sharing them")
	}
	if a.Val != nil {
		t.Fatal("Fill gave its source values")
	}
}

// TestPatternOnlyCSR: a CSR without values is a first-class matrix to
// Validate, Transpose and Symmetric — they used to reject it, index its nil
// Val, and panic respectively.
func TestPatternOnlyCSR(t *testing.T) {
	// 0→1, 0→3, 1→2, 3→0, 3→3: only (0,3)/(3,0) is mirrored.
	edges := []uint64{PackEdge(0, 1), PackEdge(0, 3), PackEdge(1, 2), PackEdge(3, 0), PackEdge(3, 3)}
	a, err := FromEdges[bool](4, 4, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Val != nil {
		t.Fatal("FromEdges must build a pattern-only matrix")
	}
	if err := Validate(a); err != nil {
		t.Fatalf("Validate rejects a pattern-only CSR: %v", err)
	}
	if ind, val := a.RowSpan(0); len(ind) != 2 || val != nil {
		t.Fatalf("row 0 = %v %v", ind, val)
	}
	if Symmetric(a) || PatternSymmetric(a) {
		t.Fatal("asymmetric pattern reported symmetric")
	}
	at := Transpose(a)
	if at.Val != nil {
		t.Fatal("the transpose of a pattern-only matrix must be pattern-only")
	}
	if err := Validate(at); err != nil {
		t.Fatal(err)
	}
	// The structure is exactly the valued transpose's.
	valued := Transpose(Fill(a, true))
	if !slices.Equal(at.Ptr, valued.Ptr) || !slices.Equal(at.Ind, valued.Ind) || len(valued.Val) != a.NNZ() {
		t.Fatalf("pattern transpose %v %v, valued transpose %v %v", at.Ptr, at.Ind, valued.Ptr, valued.Ind)
	}
	if want := []uint32{3, 0, 1, 0, 3}; !slices.Equal(at.Ind, want) {
		t.Fatalf("transpose Ind = %v want %v", at.Ind, want)
	}
	if !sameCSR(Transpose(at), a) {
		t.Fatal("transposing twice must give the matrix back")
	}
	sym, err := FromEdges[bool](4, 4, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	if !Symmetric(sym) || !sameCSR(Transpose(sym), sym) {
		t.Fatal("a mirrored pattern must equal its transpose")
	}
	// A Val of the wrong length is still an error.
	bad := &CSR[bool]{Rows: 4, Cols: 4, Ptr: a.Ptr, Ind: a.Ind, Val: []bool{true}}
	if Validate(bad) == nil {
		t.Fatal("Validate accepted 5 indices with 1 value")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := mustFromCOO(t, 2, 2, []uint32{0, 1}, []uint32{1, 0}, []int{1, 2}, nil)
	a.Ind[0] = 7
	if Validate(a) == nil {
		t.Fatal("out-of-range index not caught")
	}
	b := mustFromCOO(t, 2, 2, []uint32{0, 0}, []uint32{0, 1}, []int{1, 2}, nil)
	b.Ind[1] = 0
	if Validate(b) == nil {
		t.Fatal("unsorted row not caught")
	}
	c := mustFromCOO(t, 2, 2, []uint32{0}, []uint32{1}, []int{1}, nil)
	c.Ptr[2] = 5
	if Validate(c) == nil {
		t.Fatal("bad Ptr endpoint not caught")
	}
}
