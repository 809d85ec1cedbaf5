package graphblas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/par"
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

func TestAssignVectorMasked(t *testing.T) {
	// v⟨f⟩ = u: a merge through a sparse mask keeps v's other elements and
	// takes u only where the mask allows.
	v := NewVector[int64](8)
	_ = v.SetElement(0, 1)
	u := NewVector[int64](8)
	for i := 1; i < 8; i++ {
		_ = u.SetElement(i, int64(10*i))
	}
	f := NewVector[bool](8)
	_ = f.SetElement(2, true)
	_ = f.SetElement(5, true)
	if err := Into(v).Mask(f).AssignVector(u); err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 3 {
		t.Fatalf("NVals=%d want 3", v.NVals())
	}
	for i, want := range map[int]int64{0: 1, 2: 20, 5: 50} {
		if x, _ := v.ExtractElement(i); x != want {
			t.Fatalf("v[%d]=%d want %d", i, x, want)
		}
	}
	// Complemented merge via a bitset mask.
	f.ToBitset()
	v2 := NewVector[int64](8)
	if err := Into(v2).Mask(f).With(&Descriptor{StructuralComplement: true}).AssignVector(u); err != nil {
		t.Fatal(err)
	}
	if v2.NVals() != 5 {
		t.Fatalf("scmp NVals=%d want 5", v2.NVals())
	}
	if _, err := v2.ExtractElement(2); !errors.Is(err, ErrNoValue) {
		t.Fatal("masked-out index assigned")
	}
	// Dimension error.
	bad := NewVector[bool](3)
	if err := Into(v).Mask(bad).AssignVector(u); !errors.Is(err, ErrDimensionMismatch) {
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
	all := NewVector[bool](n)
	all.Fill(true)
	v := NewVector[bool](n)
	if err := Into(v).Mask(f).AssignVector(all); err != nil {
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
	// Only MxV chooses a direction, so only MxV writes Descriptor.Plan:
	// the pipeline ops that follow it on the same descriptor (SSSP's
	// Select and AssignVector) leave the matvec's record readable.
	n := 8
	a := patternFromEdges(n, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, true)
	u := NewVector[bool](n)
	_ = u.SetElement(2, true)
	var plan core.Plan
	desc := &Descriptor{Plan: &plan, StructureOnly: true}
	f := NewVector[bool](n)
	if _, err := Into(f).With(desc).MxV(OrAndBool(), a, u); err != nil {
		t.Fatal(err)
	}
	if plan.Rule != core.RuleCostModel || plan.FrontierNNZ != 1 {
		t.Fatalf("MxV plan = %+v, want a cost-model record of the one-vertex frontier", plan)
	}
	want := plan
	w := NewVector[bool](n)
	if err := Into(w).With(desc).Select(func(i int, _ bool) bool { return i > 1 }, f); err != nil {
		t.Fatal(err)
	}
	if err := Into(w).With(desc).Apply(func(x bool) bool { return x }, f); err != nil {
		t.Fatal(err)
	}
	if err := Into(w).With(desc).AssignVector(f); err != nil {
		t.Fatal(err)
	}
	if plan != want {
		t.Fatalf("plan after Select/Apply/AssignVector = %+v, want the MxV record %+v", plan, want)
	}
}

// TestSelectPredicateContract pins what a fold in Select's predicate relies
// on (SSSP's and CC's relax, MultiBFS's lane stamps): over sparse, bitset
// and dense inputs, unmasked, masked and complemented, into a separate
// output and in place, pred runs exactly once per element the mask allows,
// in ascending index order, on the calling goroutine — with parallel
// workers available.
func TestSelectPredicateContract(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(50))
	n := 2000
	partial, full := randVec(rng, n, 0.4), randVec(rng, n, 1.1)
	mask := NewVector[bool](n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			_ = mask.SetElement(i, true)
		}
	}
	caller := goroutineID()
	for _, format := range []Format{Sparse, Bitset, Dense} {
		base := partial
		if format == Dense {
			base = full
		}
		for maskKind := 0; maskKind < 3; maskKind++ {
			for _, inPlace := range []bool{false, true} {
				u := inFormat(base, format)
				var m *Vector[bool]
				if maskKind > 0 {
					m = mask
				}
				desc := &Descriptor{StructuralComplement: maskKind == 2}
				var calls []int
				foreign := 0
				pred := func(i int, x float64) bool {
					calls = append(calls, i)
					if goroutineID() != caller {
						foreign++
					}
					return x > 1.5
				}
				w := u
				if !inPlace {
					w = NewVector[float64](n)
				}
				if err := Into(w).Mask(m).With(desc).Select(pred, u); err != nil {
					t.Fatal(err)
				}
				var want []int
				base.Iterate(func(i int, _ float64) bool {
					if oracleAllows(m, maskKind == 2, i) {
						want = append(want, i)
					}
					return true
				})
				cell := fmt.Sprintf("format=%v mask=%d inPlace=%v", format, maskKind, inPlace)
				if foreign != 0 {
					t.Errorf("%s: %d predicate calls off the calling goroutine", cell, foreign)
				}
				if len(calls) != len(want) {
					t.Fatalf("%s: %d predicate calls, want one per allowed element (%d)", cell, len(calls), len(want))
				}
				for k := range want {
					if calls[k] != want[k] {
						t.Fatalf("%s: call %d at index %d, want %d (ascending, once each)", cell, k, calls[k], want[k])
					}
				}
			}
		}
	}
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

func TestApplyReplacesOutput(t *testing.T) {
	// Apply replaces w: positions u does not store are not retained.
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
