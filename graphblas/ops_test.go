package graphblas

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
)

func TestEWiseMultIntersection(t *testing.T) {
	u := NewVector[float64](8)
	v := NewVector[float64](8)
	_ = u.SetElement(1, 2)
	_ = u.SetElement(3, 4)
	_ = u.SetElement(5, 6)
	_ = v.SetElement(3, 10)
	_ = v.SetElement(5, 100)
	_ = v.SetElement(7, 1000)
	w := NewVector[float64](8)
	mul := func(a, b float64) float64 { return a * b }
	if err := Into(w).EWiseMult(mul, u, v); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 2 {
		t.Fatalf("NVals=%d want 2", w.NVals())
	}
	if x, _ := w.ExtractElement(3); x != 40 {
		t.Fatalf("w[3]=%g", x)
	}
	if x, _ := w.ExtractElement(5); x != 600 {
		t.Fatalf("w[5]=%g", x)
	}
}

func TestEWiseAddUnion(t *testing.T) {
	u := NewVector[float64](8)
	v := NewVector[float64](8)
	_ = u.SetElement(1, 2)
	_ = u.SetElement(3, 4)
	_ = v.SetElement(3, 10)
	_ = v.SetElement(7, 1000)
	w := NewVector[float64](8)
	add := func(a, b float64) float64 { return a + b }
	if err := Into(w).EWiseAdd(add, u, v); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 3 {
		t.Fatalf("NVals=%d want 3", w.NVals())
	}
	for i, want := range map[int]float64{1: 2, 3: 14, 7: 1000} {
		if x, _ := w.ExtractElement(i); x != want {
			t.Fatalf("w[%d]=%g want %g", i, x, want)
		}
	}
}

func TestEWiseProperty(t *testing.T) {
	// Mult pattern = intersection; Add pattern = union; on the
	// intersection Add and Mult agree with the op applied pairwise.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		u := NewVector[float64](n)
		v := NewVector[float64](n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = u.SetElement(i, rng.Float64())
			}
			if rng.Intn(2) == 0 {
				_ = v.SetElement(i, rng.Float64())
			}
		}
		op := func(a, b float64) float64 { return a + 2*b }
		wm := NewVector[float64](n)
		wa := NewVector[float64](n)
		if Into(wm).EWiseMult(op, u, v) != nil || Into(wa).EWiseAdd(op, u, v) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			ux, ue := u.ExtractElement(i)
			vx, ve := v.ExtractElement(i)
			mx, me := wm.ExtractElement(i)
			ax, ae := wa.ExtractElement(i)
			both := ue == nil && ve == nil
			either := ue == nil || ve == nil
			if both != (me == nil) || either != (ae == nil) {
				return false
			}
			if both && (mx != op(ux, vx) || ax != op(ux, vx)) {
				return false
			}
			if ue == nil && ve != nil && ae == nil && ax != ux {
				return false
			}
			if ve == nil && ue != nil && ae == nil && ax != vx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

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
	// In place on a dense vector.
	u.ToDense()
	if err := Into(u).Apply(func(x float64) float64 { return -x }, u); err != nil {
		t.Fatal(err)
	}
	if x, _ := u.ExtractElement(4); x != -6 {
		t.Fatalf("dense in-place apply u[4]=%g", x)
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

func TestReduce(t *testing.T) {
	u := NewVector[float64](5)
	_ = u.SetElement(0, 3)
	_ = u.SetElement(3, 4)
	plus := PlusTimesFloat64().Add
	if got := Reduce(plus, u); got != 7 {
		t.Fatalf("Reduce=%g want 7", got)
	}
	// With terminal short-circuit: OR over bools.
	b := NewVector[bool](4)
	_ = b.SetElement(1, true)
	_ = b.SetElement(2, true)
	or := OrAndBool().Add
	if !Reduce(or, b) {
		t.Fatal("OR reduce should be true")
	}
	empty := NewVector[float64](5)
	if got := Reduce(plus, empty); got != 0 {
		t.Fatalf("empty reduce=%g", got)
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
	// Complemented assign via a dense mask.
	f.ToDense()
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
	v := NewVector[float64](n)
	_ = v.SetElement(2, 2)
	var plan core.Plan
	desc := &Descriptor{Plan: &plan}
	w := NewVector[float64](n)
	if err := Into(w).With(desc).EWiseMult(func(a, b float64) float64 { return a * b }, u, v); err != nil {
		t.Fatal(err)
	}
	if plan.Op != core.OpEWiseMult || plan.OutKind != core.KindSparse {
		t.Fatalf("plan = %q/%v, want ewise-mult/sparse", plan.Op, plan.OutKind)
	}
	ub := u.Dup()
	ub.ToBitmap()
	if err := Into(w).With(desc).Apply(func(x float64) float64 { return x }, ub); err != nil {
		t.Fatal(err)
	}
	if plan.Op != core.OpApply || plan.OutKind != core.KindBitmap {
		t.Fatalf("plan = %q/%v, want apply/bitmap", plan.Op, plan.OutKind)
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
	op := func(x, y float64) float64 { return x + y }
	if err := Into(w).EWiseMult(op, a, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mult: %v", err)
	}
	if err := Into(w).EWiseAdd(op, a, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("add: %v", err)
	}
	if err := Into(w).Apply(func(x float64) float64 { return x }, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("apply: %v", err)
	}
	if err := Into(w).Select(func(int, float64) bool { return true }, b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("select: %v", err)
	}
	if err := Into[float64](nil).EWiseMult(op, a, a); !errors.Is(err, ErrInvalidValue) {
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
	ind, val = m.ColView(2)
	if len(ind) != 2 || ind[0] != 0 || val[0] != 4 {
		t.Fatalf("ColView = %v %v", ind, val)
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
	mt := MaxTimesFloat64()
	if mt.Add.Op(3, 5) != 5 || mt.Mul(3, 5) != 15 {
		t.Fatal("max-times broken")
	}
	pt := PlusTimesFloat64()
	if pt.Add.Op(3, 5) != 8 || pt.Mul(3, 5) != 15 {
		t.Fatal("plus-times broken")
	}
	if got := pt.Add.Reduce([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("Monoid.Reduce=%g", got)
	}
}
