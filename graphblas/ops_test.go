package graphblas

import (
	"errors"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/sparse"
)

func TestApplyAndSelect(t *testing.T) {
	u := NewVector[float64](6)
	_ = u.SetElement(0, 1)
	_ = u.SetElement(2, -3)
	_ = u.SetElement(4, 5)
	w := NewVector[float64](6)
	if err := Into(w).Apply(func(x float64) float64 { return 2 * x }, u); err != nil {
		t.Fatal(err)
	}
	if x, _ := w.ExtractElement(2); x != -6 {
		t.Fatalf("apply w[2]=%g", x)
	}
	// In place.
	if err := Into(u).Apply(func(x float64) float64 { return x + 1 }, u); err != nil {
		t.Fatal(err)
	}
	if x, _ := u.ExtractElement(4); x != 6 {
		t.Fatalf("in-place apply u[4]=%g", x)
	}
	// In place on a bitset vector.
	u.ToBitset()
	if err := Into(u).Apply(func(x float64) float64 { return -x }, u); err != nil {
		t.Fatal(err)
	}
	if x, _ := u.ExtractElement(4); x != -6 {
		t.Fatalf("bitset in-place apply u[4]=%g", x)
	}

	sel := NewVector[float64](6)
	if err := Into(sel).Select(func(_ int, x float64) bool { return x > 0 }, u); err != nil {
		t.Fatal(err)
	}
	if sel.NVals() != 1 {
		t.Fatalf("select NVals=%d want 1", sel.NVals())
	}
	if x, _ := sel.ExtractElement(2); x != 2 {
		t.Fatalf("select kept wrong value %g", x)
	}
}

func TestAssignScalar(t *testing.T) {
	// v⟨f⟩ = depth, the BFS bookkeeping step.
	v := NewVector[int64](8)
	_ = v.SetElement(0, 1)
	f := NewVector[bool](8)
	_ = f.SetElement(2, true)
	_ = f.SetElement(5, true)
	if err := Into(v).Mask(f).AssignScalar(7); err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 3 {
		t.Fatalf("NVals=%d want 3", v.NVals())
	}
	for i, want := range map[int]int64{0: 1, 2: 7, 5: 7} {
		if x, _ := v.ExtractElement(i); x != want {
			t.Fatalf("v[%d]=%d want %d", i, x, want)
		}
	}
	// Complemented assign via a bitset mask.
	f.ToBitset()
	v2 := NewVector[int64](8)
	if err := Into(v2).Mask(f).With(&Descriptor{StructuralComplement: true}).AssignScalar(9); err != nil {
		t.Fatal(err)
	}
	if v2.NVals() != 6 {
		t.Fatalf("scmp NVals=%d want 6", v2.NVals())
	}
	if _, err := v2.ExtractElement(2); !errors.Is(err, ErrNoValue) {
		t.Fatal("masked-out index assigned")
	}
	// Dimension error.
	bad := NewVector[bool](3)
	if err := Into(v).Mask(bad).AssignScalar(0); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
}

func TestOpSpecPolymorphicMask(t *testing.T) {
	// Masks are structural: a float64 vector masks a bool op and vice
	// versa, and a typed-nil mask pointer means "no mask".
	n := 6
	f := NewVector[float64](n)
	_ = f.SetElement(1, 0.5)
	_ = f.SetElement(4, 2.5)
	v := NewVector[bool](n)
	if err := Into(v).Mask(f).AssignScalar(true); err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 2 {
		t.Fatalf("NVals=%d want 2", v.NVals())
	}
	if _, err := v.ExtractElement(4); err != nil {
		t.Fatal("masked-in index missing")
	}
	var nilMask *Vector[bool]
	w := NewVector[float64](n)
	if err := Into(w).Mask(nilMask).Apply(func(x float64) float64 { return -x }, f); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 2 {
		t.Fatalf("typed-nil mask: NVals=%d want 2 (unmasked)", w.NVals())
	}
}

func TestOpSpecPlanRecording(t *testing.T) {
	// Every pipeline op reports what ran through Descriptor.Plan.
	n := 8
	u := NewVector[float64](n)
	_ = u.SetElement(2, 1)
	var plan core.Plan
	desc := &Descriptor{Plan: &plan}
	w := NewVector[float64](n)
	if err := Into(w).With(desc).Select(func(_ int, x float64) bool { return x > 0 }, u); err != nil {
		t.Fatal(err)
	}
	if plan.Op != core.OpSelect || plan.OutKind != core.KindSparse {
		t.Fatalf("plan = %q/%v, want select/sparse", plan.Op, plan.OutKind)
	}
	ub := u.Dup()
	ub.ToBitset()
	if err := Into(w).With(desc).Apply(func(x float64) float64 { return x }, ub); err != nil {
		t.Fatal(err)
	}
	if plan.Op != core.OpApply || plan.OutKind != core.KindBitset {
		t.Fatalf("plan = %q/%v, want apply/bitset", plan.Op, plan.OutKind)
	}
}

func TestOpSpecAccumVsReplace(t *testing.T) {
	// Without an accumulator the op replaces w; with one it merges.
	n := 5
	u := NewVector[float64](n)
	_ = u.SetElement(1, 10)
	w := NewVector[float64](n)
	_ = w.SetElement(0, 1)
	_ = w.SetElement(1, 2)
	if err := Into(w).Apply(func(x float64) float64 { return x }, u); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 1 {
		t.Fatalf("replace semantics: NVals=%d want 1", w.NVals())
	}
	w2 := NewVector[float64](n)
	_ = w2.SetElement(0, 1)
	_ = w2.SetElement(1, 2)
	if err := Into(w2).Accum(func(a, b float64) float64 { return a + b }).Apply(func(x float64) float64 { return x }, u); err != nil {
		t.Fatal(err)
	}
	if w2.NVals() != 2 {
		t.Fatalf("accum semantics: NVals=%d want 2", w2.NVals())
	}
	if x, _ := w2.ExtractElement(1); x != 12 {
		t.Fatalf("accum w2[1]=%g want 12", x)
	}
	if x, _ := w2.ExtractElement(0); x != 1 {
		t.Fatalf("accum w2[0]=%g want 1 (kept)", x)
	}
}

func TestOpsDimensionErrors(t *testing.T) {
	a := NewVector[float64](3)
	b := NewVector[float64](4)
	w := NewVector[float64](3)
	id := func(x float64) float64 { return x }
	if err := Into(w).Apply(id, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("apply: %v", err)
	}
	if err := Into(w).Select(func(int, float64) bool { return true }, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("select: %v", err)
	}
	if err := Into[float64](nil).Apply(id, a); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("nil w: %v", err)
	}
}

func TestMatrixAccessors(t *testing.T) {
	rows := []uint32{0, 1, 2, 0}
	cols := []uint32{1, 2, 0, 2}
	vals := []float64{1, 2, 3, 4}
	m, err := NewMatrixFromCOO(3, 3, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NRows() != 3 || m.NCols() != 3 || m.NVals() != 4 {
		t.Fatal("shape accessors wrong")
	}
	if x, err := m.ExtractElement(0, 2); err != nil || x != 4 {
		t.Fatalf("ExtractElement=%g,%v", x, err)
	}
	if _, err := m.ExtractElement(1, 0); !errors.Is(err, ErrNoValue) {
		t.Fatalf("empty position: %v", err)
	}
	if _, err := m.ExtractElement(5, 0); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("out of range: %v", err)
	}
	ind, val := m.RowView(0)
	if len(ind) != 2 || ind[0] != 1 || val[1] != 4 {
		t.Fatalf("RowView = %v %v", ind, val)
	}
	if m.MaxDegree() != 2 {
		t.Fatalf("MaxDegree=%d", m.MaxDegree())
	}
	if d := m.AvgDegree(); d < 1.3 || d > 1.4 {
		t.Fatalf("AvgDegree=%g", d)
	}
	if m.Symmetric() {
		t.Fatal("asymmetric matrix reported symmetric")
	}
}

func TestMatrixSymmetricSharing(t *testing.T) {
	rows := []uint32{0, 1, 1, 2}
	cols := []uint32{1, 0, 2, 1}
	vals := []bool{true, true, true, true}
	m, err := NewMatrixFromCOO(3, 3, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Symmetric() {
		t.Fatal("symmetric matrix should share CSR/CSC")
	}
	if m.CSR() != m.CSC() {
		t.Fatal("symmetric views should alias")
	}
	if m.CSR().KnownSymmetric {
		t.Fatal("coordinate triples carry no symmetry certificate: the walk must have found it")
	}
}

// TestMatrixTrustsSymmetryCertificate: NewMatrixFromCSR takes a builder's
// certificate at its word instead of walking, so even a false one is believed.
func TestMatrixTrustsSymmetryCertificate(t *testing.T) {
	directed, err := sparse.FromEdges[bool](3, 3, []uint64{sparse.PackEdge(0, 1), sparse.PackEdge(1, 2)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if NewMatrixFromCSR(directed).Symmetric() {
		t.Fatal("a directed build must get a materialised transpose")
	}
	directed.KnownSymmetric = true
	if !NewMatrixFromCSR(directed).Symmetric() {
		t.Fatal("NewMatrixFromCSR walked a certified CSR")
	}
}

func TestSemiringProperties(t *testing.T) {
	// Monoid laws on the provided semirings, spot-checked.
	or := OrAndBool()
	if or.Add.Op(false, true) != true || or.Add.Identity != false {
		t.Fatal("bool semiring broken")
	}
	if or.Add.Terminal == nil || !*or.Add.Terminal {
		t.Fatal("bool semiring needs terminal true")
	}
	mp := MinPlusFloat64()
	if mp.Add.Op(3, 5) != 3 || mp.Mul(3, 5) != 8 {
		t.Fatal("min-plus broken")
	}
	if mp.Mul(mp.One, 7) != 7 {
		t.Fatal("min-plus One must be multiplicative identity")
	}
	ms := MinSecondUint32()
	if ms.Mul(3, 5) != 5 || ms.Add.Op(3, 5) != 3 {
		t.Fatal("min-second broken")
	}
	pt := PlusTimesFloat64()
	if pt.Add.Op(3, 5) != 8 || pt.Mul(3, 5) != 15 {
		t.Fatal("plus-times broken")
	}
}
