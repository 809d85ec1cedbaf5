package graphblas

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// This file is the differential property suite for the four-format
// storage engine: random matrices × random frontiers pushed through every
// combination of
//
//	direction   ForcePush, ForcePull, Auto
//	format      sparse, bitmap, bitset, dense (full pattern)
//	mask        none, plain, structural complement, scmp + allow-list
//	pull input  none, a second vector (OpSpec.PullInput)
//
// and compared element-for-element against the dense reference
// implementation (oracleMxV from mxv_test.go). Every pairing must agree:
// the format-agnostic kernel views, the planner's dispatch and the
// sort-free bitmap push output all ride through here.

// diffCase names one (direction, format, mask, pull input) combination.
type diffCase struct {
	dir    Direction
	format Format
	mask   int // 0 none, 1 plain, 2 scmp, 3 scmp+allow-list
	pullIn bool
}

func (c diffCase) String() string {
	masks := []string{"nomask", "mask", "scmp", "scmp+list"}
	return fmt.Sprintf("dir=%d format=%v mask=%s pullIn=%v", c.dir, c.format, masks[c.mask], c.pullIn)
}

// inFormat returns a copy of u converted to the requested storage format.
// Dense requires a full pattern; the caller only asks for it with one.
func inFormat(u *Vector[float64], f Format) *Vector[float64] {
	c := u.Dup()
	if f == Sparse {
		c.ToSparse()
		return c
	}
	c.ToBitset()
	if f == Dense {
		c.promoteFull()
	}
	return c
}

func TestMxVDifferentialAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	s := MinPlusFloat64()

	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(28)
		a := randMatrix(rng, n, n, 0.15+rng.Float64()*0.25)

		// Partial frontier for sparse/bitmap, full frontier for dense.
		uPartial := randVec(rng, n, 0.2+rng.Float64()*0.6)
		uFull := randVec(rng, n, 1.1) // density > 1 → every element present
		// A pull input unrelated to u: a pull must read it, a push ignore it.
		vPartial := randVec(rng, n, 0.2+rng.Float64()*0.6)
		vFull := randVec(rng, n, 1.1)

		mask := NewVector[bool](n)
		var allow []uint32 // complement of the mask pattern, for scmp
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = mask.SetElement(i, true)
			} else {
				allow = append(allow, uint32(i))
			}
		}

		w0 := randVec(rng, n, 0.3) // destination seed the product replaces

		for _, format := range []Format{Sparse, Bitset, Dense} {
			base, vBase := uPartial, vPartial
			if format == Dense {
				base, vBase = uFull, vFull
			}
			for _, dir := range []Direction{ForcePush, ForcePull, Auto} {
				for maskKind := 0; maskKind < 4; maskKind++ {
					for _, withPullIn := range []bool{false, true} {
						tc := diffCase{dir: dir, format: format, mask: maskKind, pullIn: withPullIn}
						u := inFormat(base, format)
						if u.Format() != format {
							t.Fatalf("%v: setup produced format %v", tc, u.Format())
						}

						desc := &Descriptor{Direction: dir}
						var m *Vector[bool]
						scmp := false
						switch maskKind {
						case 1:
							m = mask
						case 2, 3:
							m = mask
							scmp = true
							desc.StructuralComplement = true
							if maskKind == 3 {
								desc.MaskAllowList = allow
							}
						}

						var pullIn *Vector[float64]
						if withPullIn {
							pullIn = inFormat(vBase, format)
						}
						w := w0.Dup()
						got, err := Into(w).Mask(m).PullInput(pullIn).With(desc).MxV(s, a, u)
						if err != nil {
							t.Fatalf("trial %d %v: %v", trial, tc, err)
						}

						// A pull reads the pull input, a push ignores it;
						// Auto is graded against the kernel it chose.
						read := base
						if withPullIn && got == PullDirection {
							read = vBase
						}
						want := oracleMxV(a, read, m, scmp, false, s)
						vecEquals(t, fmt.Sprintf("trial %d %v", trial, tc), w, want)
					}
				}
			}
		}
	}
}

// TestMxVPullInput covers what the table cannot: the planner prices pull
// at the pull input's storage kind and settles the pull input, not u, on a
// pull; an output that is also the pull input (the pull reads it, so the
// write bounces through scratch); an output that is u while the pull reads
// the pull input (the pull then writes w in place — u is not read); and a
// pull input of the wrong size.
func TestMxVPullInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	s := MinPlusFloat64()
	n := 40
	a := randMatrix(rng, n, n, 0.2)
	u := randVec(rng, n, 0.3)
	v := randVec(rng, n, 0.6)

	model := &core.CostModel{ProbeWordNs: 3, ProbeDenseNs: 1, RowNs: 1, GatherNs: 1, SetupNs: 1}
	pullCost := func(u, pullIn *Vector[float64]) float64 {
		var plan core.Plan
		desc := &Descriptor{Direction: ForcePull, CostModel: model, Plan: &plan}
		if _, err := Into(NewVector[float64](n)).PullInput(pullIn).With(desc).MxV(s, a, u); err != nil {
			t.Fatal(err)
		}
		return plan.PullCost
	}
	vDense := v.Dup()
	vDense.Fill(1)
	if got, want := pullCost(u, vDense), pullCost(vDense, nil); got != want || got == pullCost(u, nil) {
		t.Fatalf("pull priced at %g, want the dense input's %g (a word probe prices %g)", got, want, pullCost(u, nil))
	}
	uWide, vSparse := randVec(rng, n, 0.9), inFormat(v, Sparse)
	if dir, err := Into(NewVector[float64](n)).PullInput(vSparse).MxV(s, a, uWide); err != nil || dir != PullDirection {
		t.Fatalf("dense-ish frontier planned %v (err %v), want a pull", dir, err)
	}
	if uWide.Format() != Sparse || vSparse.Format() != Bitset {
		t.Fatalf("after a pull u is %v and the pull input %v: the pull input settles, u does not", uWide.Format(), vSparse.Format())
	}

	for _, dir := range []Direction{ForcePush, ForcePull} {
		desc := &Descriptor{Direction: dir}
		read := u
		if dir == ForcePull {
			read = v
		}
		want := oracleMxV(a, read, nil, false, false, s)
		w := v.Dup()
		if _, err := Into(w).PullInput(w).With(desc).MxV(s, a, u); err != nil {
			t.Fatal(err)
		}
		vecEquals(t, fmt.Sprintf("dir=%d w=pull input", dir), w, want)

		w = u.Dup()
		if _, err := Into(w).PullInput(v).With(desc).MxV(s, a, w); err != nil {
			t.Fatal(err)
		}
		vecEquals(t, fmt.Sprintf("dir=%d w=u", dir), w, want)
	}

	w := u.Dup()
	pull := &Descriptor{Direction: ForcePull}
	for i := 0; i < 2; i++ {
		if _, err := Into(w).PullInput(v).With(pull).MxV(s, a, w); err != nil {
			t.Fatal(err)
		}
	}
	first := &w.dval[0]
	if _, err := Into(w).PullInput(v).With(pull).MxV(s, a, w); err != nil {
		t.Fatal(err)
	}
	if &w.dval[0] != first {
		t.Fatal("a pull reading the pull input bounced its write through scratch: w = u is not read")
	}

	if _, err := Into(NewVector[float64](n)).PullInput(NewVector[float64](n+1)).MxV(s, a, u); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("pull input of size %d against %d: err %v, want ErrDimensionMismatch", n+1, n, err)
	}
}

// vecToMap flattens a vector into the oracle's map representation.
func vecToMap(v *Vector[float64]) map[int]float64 {
	out := map[int]float64{}
	v.Iterate(func(i int, x float64) bool { out[i] = x; return true })
	return out
}

// oracleAllows evaluates the effective mask at i on the oracle side.
func oracleAllows(mask *Vector[bool], scmp bool, i int) bool {
	if mask == nil {
		return true
	}
	_, err := mask.ExtractElement(i)
	return (err == nil) != scmp
}

// TestOpsDifferentialUnified fuzzes the uniform operation surface — apply,
// select, assignVector — through every combination of
//
//	formats     u sparse / bitmap / bitset / dense(full)
//	mask        none, plain, structural complement, scmp + allow-list
//
// against dense map oracles. This is the acceptance gate for the OpSpec
// pipeline: every op must apply the mask to its computed output pattern
// and agree element-for-element regardless of operand storage formats.
func TestOpsDifferentialUnified(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))

	formats := []Format{Sparse, Bitset, Dense}
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(24)
		uPartial := randVec(rng, n, 0.2+rng.Float64()*0.5)
		uFull := randVec(rng, n, 1.1)
		w0 := randVec(rng, n, 0.3)

		mask := NewVector[bool](n)
		var allow []uint32 // complement of the mask pattern, for scmp
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = mask.SetElement(i, true)
			} else {
				allow = append(allow, uint32(i))
			}
		}

		for _, uf := range formats {
			uBase := uPartial
			if uf == Dense {
				uBase = uFull
			}
			um := vecToMap(uBase)
			for maskKind := 0; maskKind < 4; maskKind++ {
				desc := &Descriptor{}
				var m *Vector[bool]
				scmp := false
				switch maskKind {
				case 1:
					m = mask
				case 2, 3:
					m = mask
					scmp = true
					desc.StructuralComplement = true
					if maskKind == 3 {
						desc.MaskAllowList = allow
					}
				}
				ctx := fmt.Sprintf("trial %d uf=%v mask=%d", trial, uf, maskKind)

				type opCase struct {
					name string
					run  func(w, u *Vector[float64]) error
					want func() map[int]float64
				}
				cases := []opCase{
					{"apply", func(w, u *Vector[float64]) error {
						return Into(w).Mask(m).With(desc).Apply(func(x float64) float64 { return 3 * x }, u)
					}, func() map[int]float64 {
						t := map[int]float64{}
						for i, x := range um {
							if oracleAllows(m, scmp, i) {
								t[i] = 3 * x
							}
						}
						return t
					}},
					{"select", func(w, u *Vector[float64]) error {
						return Into(w).Mask(m).With(desc).Select(func(i int, x float64) bool { return x > 1.5 }, u)
					}, func() map[int]float64 {
						t := map[int]float64{}
						for i, x := range um {
							if x > 1.5 && oracleAllows(m, scmp, i) {
								t[i] = x
							}
						}
						return t
					}},
				}
				for _, oc := range cases {
					u := inFormat(uBase, uf)
					w := w0.Dup()
					if err := oc.run(w, u); err != nil {
						t.Fatalf("%s %s: %v", ctx, oc.name, err)
					}
					vecEquals(t, ctx+" "+oc.name, w, oc.want())
				}

				// Assign ops merge instead of replacing, with the
				// mask filtering which positions are touched.
				{
					u := inFormat(uBase, uf)
					w := w0.Dup()
					if err := Into(w).Mask(m).With(desc).AssignVector(u); err != nil {
						t.Fatalf("%s assign: %v", ctx, err)
					}
					want := vecToMap(w0)
					for i, x := range um {
						if !oracleAllows(m, scmp, i) {
							continue
						}
						want[i] = x
					}
					vecEquals(t, ctx+" assign", w, want)
					if w0.Format() == Sparse && w.Format() != Sparse {
						t.Fatalf("%s assign: sparse destination became %v", ctx, w.Format())
					}
				}
				{
					// A full operand: every position the mask allows.
					fill := NewVector[float64](n)
					fill.Fill(1.25)
					w := w0.Dup()
					if err := Into(w).Mask(m).With(desc).AssignVector(fill); err != nil {
						t.Fatalf("%s assign-full: %v", ctx, err)
					}
					want := vecToMap(w0)
					for i := 0; i < n; i++ {
						if !oracleAllows(m, scmp, i) {
							continue
						}
						want[i] = 1.25
					}
					vecEquals(t, ctx+" assign-full", w, want)
				}
			}
		}
	}
}

// TestOpsFormatPreserved pins the format engine: apply outputs follow the
// operand's format instead of unconditionally sparsifying — a full operand
// produces dense, a bitset one bitset, and sparse stays sparse.
func TestOpsFormatPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	n := 40

	uWide := randVec(rng, n, 1.1)
	uWide.ToBitset()
	uBitset := randVec(rng, n, 0.4)
	uBitset.ToBitset()
	uSparse := randVec(rng, n, 0.4)

	w := NewVector[float64](n)
	// Apply on a PageRank-style dense vector must not round-trip through a
	// sparse copy.
	if err := Into(w).Apply(func(x float64) float64 { return 2 * x }, uWide); err != nil {
		t.Fatal(err)
	}
	if w.Format() != Dense {
		t.Fatalf("apply on dense produced %v, want dense", w.Format())
	}
	if err := Into(w).Apply(func(x float64) float64 { return 2 * x }, uBitset); err != nil {
		t.Fatal(err)
	}
	if w.Format() != Bitset {
		t.Fatalf("apply on bitset produced %v, want bitset", w.Format())
	}
	if err := Into(w).Apply(func(x float64) float64 { return 2 * x }, uSparse); err != nil {
		t.Fatal(err)
	}
	if w.Format() != Sparse {
		t.Fatalf("apply on sparse produced %v, want sparse", w.Format())
	}
}

// TestMxVBitmapPushOutput drives the sort-free push path directly: a
// frontier dense enough that the planner estimates a dense output must
// land the product, packed from the scatter's presence bytes, in bitset
// format with the oracle's elements; a thin frontier keeps the radix
// path's sparse output.
func TestMxVBitmapPushOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := PlusTimesFloat64()
	n := 200
	a := randMatrix(rng, n, n, 0.05)
	u := randVec(rng, n, 0.5) // half the vertices: push edges ≫ n/4

	want := oracleMxV(a, u, nil, false, false, s)

	// A frontier too thin for the scatter pushes through the radix sort.
	thin := NewVector[float64](n)
	_ = thin.SetElement(7, 1.5)
	wSparse := NewVector[float64](n)
	if _, err := Into(wSparse).With(&Descriptor{Direction: ForcePush}).MxV(s, a, thin); err != nil {
		t.Fatal(err)
	}
	if wSparse.Format() != Sparse {
		t.Fatalf("thin push output is %v, want the radix path's sparse list", wSparse.Format())
	}
	vecEquals(t, "radix push", wSparse, oracleMxV(a, thin, nil, false, false, s))

	// The dense frontier's forced push: the plan's PushOutBitmap fires and
	// the output arrives in bitset form without a radix pass.
	wBitmap := NewVector[float64](n)
	if _, err := Into(wBitmap).With(&Descriptor{Direction: ForcePush}).MxV(s, a, u.Dup()); err != nil {
		t.Fatal(err)
	}
	if wBitmap.Format() == Sparse {
		t.Fatalf("dense push output stayed sparse; bitmap scatter did not engage")
	}
	vecEquals(t, "bitmap-output push", wBitmap, want)
}

// valuedCopy materialises a pattern as a T-valued matrix with the given
// (arbitrary) stored values — the O(nnz) array, symmetry walk and transpose
// the algorithms used to pay per query, kept here only as the reference the
// O(1) PatternAs view is compared against.
func valuedCopy[T comparable](p *Matrix[bool], val func(k int) T) *Matrix[T] {
	src := p.CSR()
	csr := &sparse.CSR[T]{Rows: src.Rows, Cols: src.Cols, Ptr: src.Ptr, Ind: src.Ind, Val: make([]T, len(src.Ind))}
	for k := range csr.Val {
		csr.Val[k] = val(k)
	}
	return NewMatrixFromCSR(csr)
}

// patternFromEdges builds a Boolean pattern matrix; undirected mirrors
// every edge.
func patternFromEdges(n int, edges [][2]int, undirected bool) *Matrix[bool] {
	var r, c []uint32
	var v []bool
	for _, e := range edges {
		r, c, v = append(r, uint32(e[0])), append(c, uint32(e[1])), append(v, true)
		if undirected && e[0] != e[1] {
			r, c, v = append(r, uint32(e[1])), append(c, uint32(e[0])), append(v, true)
		}
	}
	m, err := NewMatrixFromCOO(n, n, r, c, v, func(a, _ bool) bool { return a })
	if err != nil {
		panic(err)
	}
	return m
}

// secondFormGraphs is the input family of the second-form differential
// suite: directed, undirected (CSR≡CSC aliased), empty, single-vertex,
// self-loops, two components, and one wide enough to span several kernel
// chunks.
func secondFormGraphs(rng *rand.Rand) map[string]*Matrix[bool] {
	random := func(n int, p float64, undirected bool) *Matrix[bool] {
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < p {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		return patternFromEdges(n, edges, undirected)
	}
	two := [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {5, 6}, {6, 7}, {7, 8}, {8, 5}, {6, 8}}
	return map[string]*Matrix[bool]{
		"directed":      random(23, 0.2, false),
		"undirected":    random(19, 0.15, true),
		"empty":         patternFromEdges(7, nil, false),
		"single-vertex": patternFromEdges(1, nil, false),
		"self-loop":     patternFromEdges(5, [][2]int{{0, 0}, {0, 1}, {1, 2}, {3, 3}, {4, 2}}, false),
		"two-component": patternFromEdges(10, two, true),
		"wide-directed": random(700, 0.01, false),
	}
}

// TestMxVSecondFormOnPatternView is the differential suite for the
// second-form semirings: every (push radix output / push scatter output /
// pull) × (no mask, mask, complement) × transpose ×
// input-format cell runs min.second, plus.second and max.second
// on a PatternAs view and must agree element-for-element — exactly, floats
// included: same products, same fold order — with the same semiring's
// general form on a materialised valued copy whose stored values are junk
// the multiply must ignore.
func TestMxVSecondFormOnPatternView(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4)) // parallel chunks, so -race sees them
	rng := rand.New(rand.NewSource(1707))
	var pushOutputs [2]int // push cells by output path: radix, scatter
	for name, pat := range secondFormGraphs(rng) {
		secondFormCells(t, rng, name+" min.second", pat, MinSecondUint32(),
			func() uint32 { return uint32(rng.Intn(1000)) }, &pushOutputs)
		secondFormCells(t, rng, name+" plus.second", pat, PlusSecondFloat64(),
			func() float64 { return rng.Float64() + 0.5 }, &pushOutputs)
		secondFormCells(t, rng, name+" max.second", pat, MaxSecondFloat64(),
			func() float64 { return rng.Float64() + 0.5 }, &pushOutputs)
	}
	if pushOutputs[0] == 0 || pushOutputs[1] == 0 {
		t.Fatalf("push cells by output (radix, scatter) = %v: both paths must run", pushOutputs)
	}
}

// secondFormCells runs one semiring's cells on one graph, counting the
// push cells by the output path the plan chose into pushOutputs (radix,
// scatter).
func secondFormCells[T comparable](t *testing.T, rng *rand.Rand, ctx string, pat *Matrix[bool], sr Semiring[T], draw func() T, pushOutputs *[2]int) {
	t.Helper()
	if sr.Form != MulSecond {
		t.Fatalf("%s: semiring ships as form %d, want MulSecond", ctx, sr.Form)
	}
	general := sr
	general.Form = MulGeneral
	n := pat.NRows()
	view := PatternAs[T](pat)
	if view.CSR().Val != nil || view.Symmetric() != pat.Symmetric() {
		t.Fatalf("%s: view must carry no values and share the source's aliasing", ctx)
	}
	junk := valuedCopy(pat, func(int) T { return draw() })

	partial, full := NewVector[T](n), NewVector[T](n)
	mask, seed := NewVector[bool](n), NewVector[T](n)
	for i := 0; i < n; i++ {
		_ = full.SetElement(i, draw())
		if rng.Intn(3) == 0 {
			_ = partial.SetElement(i, draw())
		}
		if rng.Intn(2) == 0 {
			_ = mask.SetElement(i, true)
		}
		if rng.Intn(3) == 0 {
			_ = seed.SetElement(i, draw())
		}
	}
	convert := func(base *Vector[T], f Format) *Vector[T] {
		u := base.Dup()
		if f != Sparse {
			u.ToBitset()
			u.promoteFull()
		}
		return u
	}
	// One vertex's column usually stays below core.BitmapOutFraction, so a
	// push from it radix-sorts; the partial and full frontiers usually
	// scatter.
	thin := NewVector[T](n)
	x, _ := full.ExtractElement(0)
	_ = thin.SetElement(0, x)

	type kernel struct {
		name string
		desc Descriptor
	}
	kernels := []kernel{
		{"pull", Descriptor{Direction: ForcePull}},
		{"push", Descriptor{Direction: ForcePush}},
		{"push-thin", Descriptor{Direction: ForcePush}},
	}
	for _, k := range kernels {
		for _, format := range []Format{Sparse, Bitset, Dense} {
			base := partial
			switch {
			case k.name == "push-thin" && format == Dense:
				continue // a full frontier is not thin
			case k.name == "push-thin":
				base = thin
			case format == Dense:
				base = full
			}
			for maskKind := 0; maskKind < 3; maskKind++ {
				for _, transpose := range []bool{false, true} {
					desc := k.desc
					desc.Transpose = transpose
					var m *Vector[bool]
					if maskKind > 0 {
						m = mask
						desc.StructuralComplement = maskKind == 2
					}
					cell := fmt.Sprintf("%s %s format=%v mask=%d transpose=%v",
						ctx, k.name, format, maskKind, transpose)

					got, want := seed.Dup(), seed.Dup()
					dv, dc := desc, desc
					var plan core.Plan
					dv.Plan = &plan
					if _, err := Into(got).Mask(m).With(&dv).MxV(sr, view, convert(base, format)); err != nil {
						t.Fatalf("%s: view: %v", cell, err)
					}
					if plan.Dir == PushDirection && plan.PushOutBitmap {
						pushOutputs[1]++
					} else if plan.Dir == PushDirection {
						pushOutputs[0]++
					}
					if _, err := Into(want).Mask(m).With(&dc).MxV(general, junk, convert(base, format)); err != nil {
						t.Fatalf("%s: valued copy: %v", cell, err)
					}
					if got.NVals() != want.NVals() {
						t.Fatalf("%s: nvals %d on the view, %d on the valued copy", cell, got.NVals(), want.NVals())
					}
					want.Iterate(func(i int, x T) bool {
						if y, err := got.ExtractElement(i); err != nil || y != x {
							t.Fatalf("%s: w[%d] = %v (err %v) on the view, %v on the valued copy", cell, i, y, err, x)
						}
						return true
					})
				}
			}
		}
	}
}

// TestPatternViewRejectsGeneralForm: a multiply that would have to read the
// values a view does not store is an ErrInvalidValue, not a nil index —
// unless StructureOnly overrides the form to One.
func TestPatternViewRejectsGeneralForm(t *testing.T) {
	pat := patternFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, true)
	view := PatternAs[float64](pat)
	u, w := NewVector[float64](4), NewVector[float64](4)
	_ = u.SetElement(1, 2)
	for _, desc := range []*Descriptor{nil, {Direction: ForcePush}, {Direction: ForcePull}} {
		if _, err := Into(w).With(desc).MxV(PlusTimesFloat64(), view, u); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("general-form MxV on a view (desc %+v): err = %v, want ErrInvalidValue", desc, err)
		}
	}
	if _, err := view.ExtractElement(0, 1); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("ExtractElement on a view: err = %v, want ErrInvalidValue", err)
	}
	if _, err := Into(w).With(&Descriptor{StructureOnly: true}).MxV(PlusTimesFloat64(), view, u); err != nil {
		t.Fatalf("StructureOnly MxV on a view: %v", err)
	}
	if got, err := w.ExtractElement(0); err != nil || got != 1 {
		t.Fatalf("StructureOnly plus over one neighbour = %v (err %v), want One = 1", got, err)
	}
	if _, err := Into(w).MxV(PlusSecondFloat64(), view, u); err != nil {
		t.Fatalf("second-form MxV on a view: %v", err)
	}
	// An empty view has nothing to read, whatever the form.
	empty := PatternAs[float64](patternFromEdges(4, nil, false))
	if _, err := Into(w).MxV(PlusTimesFloat64(), empty, u); err != nil {
		t.Fatalf("general-form MxV on an empty view: %v", err)
	}
}

// TestSecondFormSteadyStateAllocs: a warmed min.second or min.secondi MxV
// over a view on a pinned workspace allocates nothing, in either direction —
// nor does a warmed pull of any other semiring the row kernels run as a
// concrete loop.
func TestSecondFormSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pat := secondFormGraphs(rng)["wide-directed"]
	n := pat.NRows()
	view := PatternAs[uint32](pat)
	sparseIn, denseIn := NewVector[uint32](n), NewVector[uint32](n)
	for i := 0; i < n; i++ {
		if i%9 == 0 {
			_ = sparseIn.SetElement(i, uint32(i))
		}
	}
	denseIn.Fill(7)
	visited := NewVector[bool](n)
	visited.ToBitset()
	_ = visited.SetElement(3, true)
	w := NewVector[uint32](n)
	ws := NewWorkspace(n, n)
	for _, tc := range []struct {
		name string
		desc *Descriptor
		u    *Vector[uint32]
	}{
		{"push", &Descriptor{Transpose: true, StructuralComplement: true, Direction: ForcePush, Workspace: ws}, sparseIn},
		{"pull", &Descriptor{Transpose: true, StructuralComplement: true, Direction: ForcePull, Workspace: ws}, denseIn},
	} {
		for name, sr := range map[string]Semiring[uint32]{"min.second": MinSecondUint32(), "min.secondi": MinIndexUint32()} {
			run := func() {
				if _, err := Into(w).Mask(visited).With(tc.desc).MxV(sr, view, tc.u); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the workspace
			run()
			if avg := testing.AllocsPerRun(20, run); avg != 0 {
				t.Errorf("%s %s: %v allocs per warmed MxV, want 0", name, tc.name, avg)
			}
		}
	}

	// The other two concrete pull loops: plus.second over a dense input
	// (PageRank's pull) and min.plus over a weighted matrix and a sparse
	// frontier (SSSP's).
	plus, minPlus := PlusSecondFloat64(), MinPlusFloat64()
	ranks, dist, fw := NewVector[float64](n), NewVector[float64](n), NewVector[float64](n)
	ranks.Fill(0.25)
	for i := 0; i < n; i += 5 {
		_ = dist.SetElement(i, float64(i))
	}
	fview, weighted := PatternAs[float64](pat), valuedCopy(pat, func(k int) float64 { return float64(k%9) + 1 })
	desc := &Descriptor{Transpose: true, Direction: ForcePull, Workspace: ws}
	for name, run := range map[string]func(){
		"plus.second dense pull": func() {
			if _, err := Into(fw).With(desc).MxV(plus, fview, ranks); err != nil {
				t.Fatal(err)
			}
		},
		"min.plus weighted pull": func() {
			if _, err := Into(fw).With(desc).MxV(minPlus, weighted, dist); err != nil {
				t.Fatal(err)
			}
		},
	} {
		run()
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%s: %v allocs per warmed MxV, want 0", name, avg)
		}
	}
}

// rewrapped is s with its operators wrapped in fresh closures: the same
// semiring, which builtinOf no longer recognises, so the pull kernels run
// it through the closure path.
func rewrapped[T any](s Semiring[T]) Semiring[T] {
	add, mul := s.Add.Op, s.Mul
	s.Add.Op = func(a, b T) T { return add(a, b) }
	s.Mul = func(a, b T) T { return mul(a, b) }
	return s
}

// specialFloat draws an ordinary value (ties, zeros and negatives
// included) or, two times in five, one of specials.
func specialFloat(rng *rand.Rand, specials ...float64) float64 {
	if rng.Intn(5) < 2 {
		return specials[rng.Intn(len(specials))]
	}
	return math.Round(rng.NormFloat64()*8) / 4
}

// TestBuiltinSemiringsMatchClosures is the differential for the concrete
// pull loops: PlusSecondFloat64, MinSecondUint32 and MinPlusFloat64 are
// tagged, the same semirings with their operators re-wrapped are not, and
// every (input layout × mask × direction × early exit × transpose) cell must give the same pattern and the same bits — floats
// compared with math.Float64bits. min.plus sees −0, ±Inf and NaNs of both
// signs, where its loop must follow math.Min exactly; no addition gets two
// NaN operands, because which one's payload survives depends on operand
// order, and Go leaves that to the compiler (so plus.second sees one NaN).
func TestBuiltinSemiringsMatchClosures(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4)) // parallel chunks, so -race sees them
	rng := rand.New(rand.NewSource(2828))
	floatBits := func(x float64) uint64 { return math.Float64bits(x) }
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	for name, pat := range secondFormGraphs(rng) {
		builtinCells(t, rng, name+" plus.second", PatternAs[float64](pat), PlusSecondFloat64(),
			func() float64 { return specialFloat(rng, negZero, inf, nan) }, floatBits)
		weights := valuedCopy(pat, func(int) float64 { return specialFloat(rng, negZero, inf, -inf) })
		builtinCells(t, rng, name+" min.plus", weights, MinPlusFloat64(),
			func() float64 { return specialFloat(rng, negZero, inf, -inf, nan, -nan) }, floatBits)
		builtinCells(t, rng, name+" min.second", PatternAs[uint32](pat), MinSecondUint32(),
			func() uint32 { return uint32(rng.Intn(50)) }, func(x uint32) uint64 { return uint64(x) })
	}
}

func builtinCells[T comparable](t *testing.T, rng *rand.Rand, ctx string, a *Matrix[T], sr Semiring[T], draw func() T, bits func(T) uint64) {
	t.Helper()
	closures := rewrapped(sr)
	if builtinOf(sr) == core.BuiltinNone || builtinOf(closures) != core.BuiltinNone {
		t.Fatalf("%s: the constructor must be recognised and its re-wrapped twin not", ctx)
	}
	n := a.NRows()
	partial, full, maskBase := NewVector[T](n), NewVector[T](n), NewVector[bool](n)
	for i := 0; i < n; i++ {
		_ = full.SetElement(i, draw())
		if rng.Intn(3) == 0 {
			_ = partial.SetElement(i, draw())
		}
		if rng.Intn(2) == 0 {
			_ = maskBase.SetElement(i, true)
		}
	}
	layouts := []Format{Sparse, Bitset, Dense}
	masks := []struct {
		name   string
		format Format // Sparse materializes into workspace words, Bitset hands its own out
		scmp   bool
	}{{"none", Sparse, false}, {"sparse", Sparse, false}, {"words", Bitset, false}, {"scmp-words", Bitset, true}, {"scmp-sparse", Sparse, true}}
	for _, layout := range layouts {
		base := partial
		if layout == Dense {
			base = full
		}
		u := base.Dup()
		if layout != Sparse {
			u.ToBitset()
			u.promoteFull()
		}
		for _, mk := range masks {
			var m *Vector[bool]
			if mk.name != "none" {
				m = maskBase.Dup()
				if mk.format == Bitset {
					m.ToBitset()
				}
			}
			for _, dir := range []Direction{ForcePull, ForcePush} {
				for _, noExit := range []bool{false, true} {
					for _, transpose := range []bool{false, true} {
						desc := Descriptor{Direction: dir, NoEarlyExit: noExit, Transpose: transpose, StructuralComplement: mk.scmp}
						cell := fmt.Sprintf("%s layout=%v mask=%s dir=%d noexit=%v transpose=%v", ctx, layout, mk.name, dir, noExit, transpose)
						got, want := NewVector[T](n), NewVector[T](n)
						dg, dw := desc, desc
						if _, err := Into(got).Mask(m).With(&dg).MxV(sr, a, u.Dup()); err != nil {
							t.Fatalf("%s: tagged: %v", cell, err)
						}
						if _, err := Into(want).Mask(m).With(&dw).MxV(closures, a, u.Dup()); err != nil {
							t.Fatalf("%s: closures: %v", cell, err)
						}
						if got.NVals() != want.NVals() {
							t.Fatalf("%s: nvals %d tagged, %d with closures", cell, got.NVals(), want.NVals())
						}
						want.Iterate(func(i int, x T) bool {
							if y, err := got.ExtractElement(i); err != nil || bits(y) != bits(x) {
								t.Fatalf("%s: w[%d] = %v, bits %#x (err %v) tagged, %v, bits %#x with closures", cell, i, y, bits(y), err, x, bits(x))
							}
							return true
						})
					}
				}
			}
		}
	}
}

// TestMinIndexMatchesMinSecondOverIds is the differential for the index
// form, which has no closures to compare against: min.secondi over u must
// give what min.second gives over a copy of u whose values are their own
// indices, pattern and values, in the sort push, the scatter push, and the
// pull over words and over a dense input — unmasked, masked and under ¬mask,
// with and without early exit, over A and Aᵀ. u's own values are junk the
// index form must never read.
func TestMinIndexMatchesMinSecondOverIds(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4)) // parallel chunks, so -race sees them
	rng := rand.New(rand.NewSource(5150))
	stamp := func(i int, _ uint32) uint32 { return uint32(i) }
	var pushes [2]int // radix-sorted, scattered
	for name, pat := range secondFormGraphs(rng) {
		a := PatternAs[uint32](pat)
		n := a.NRows()
		thin, partial, full, mask := NewVector[uint32](n), NewVector[uint32](n), NewVector[uint32](n), NewVector[bool](n)
		for i := 0; i < n; i++ {
			_ = full.SetElement(i, uint32(rng.Intn(50)))
			if rng.Intn(3) == 0 {
				_ = partial.SetElement(i, uint32(rng.Intn(50)))
			}
			if rng.Intn(2) == 0 {
				_ = mask.SetElement(i, true)
			}
		}
		_ = thin.SetElement(rng.Intn(n), 9)
		words := partial.Dup()
		words.ToBitset()
		full.ToBitset()
		full.promoteFull()
		cells := []struct {
			kernel string
			u      *Vector[uint32]
			dir    Direction
		}{
			{"sort push", thin, ForcePush},
			{"scatter push", full, ForcePush},
			{"push", partial, ForcePush},
			{"pull over sparse", partial, ForcePull},
			{"pull over words", words, ForcePull},
			{"pull over dense", full, ForcePull},
		}
		for _, c := range cells {
			ids := c.u.Dup()
			if err := Into(ids).ApplyIndexed(stamp, ids); err != nil {
				t.Fatal(err)
			}
			for _, mk := range []string{"none", "mask", "scmp"} {
				for _, noExit := range []bool{false, true} {
					for _, transpose := range []bool{false, true} {
						cell := fmt.Sprintf("%s %s mask=%s noexit=%v transpose=%v", name, c.kernel, mk, noExit, transpose)
						var m *Vector[bool]
						if mk != "none" {
							m = mask
						}
						var plan core.Plan
						desc := Descriptor{Direction: c.dir, NoEarlyExit: noExit, Transpose: transpose, StructuralComplement: mk == "scmp", Plan: &plan}
						dw := desc
						dw.Plan = nil
						got, want := NewVector[uint32](n), NewVector[uint32](n)
						if _, err := Into(got).Mask(m).With(&desc).MxV(MinIndexUint32(), a, c.u.Dup()); err != nil {
							t.Fatalf("%s: min.secondi: %v", cell, err)
						}
						if plan.Dir == PushDirection && plan.PushOutBitmap {
							pushes[1]++
						} else if plan.Dir == PushDirection {
							pushes[0]++
						}
						if _, err := Into(want).Mask(m).With(&dw).MxV(MinSecondUint32(), a, ids.Dup()); err != nil {
							t.Fatalf("%s: min.second over ids: %v", cell, err)
						}
						if got.NVals() != want.NVals() {
							t.Fatalf("%s: nvals %d, %d over ids", cell, got.NVals(), want.NVals())
						}
						want.Iterate(func(i int, x uint32) bool {
							if y, err := got.ExtractElement(i); err != nil || y != x {
								t.Fatalf("%s: w[%d] = %d (err %v), %d over ids", cell, i, y, err, x)
							}
							return true
						})
					}
				}
			}
		}
	}
	if pushes[0] == 0 || pushes[1] == 0 {
		t.Fatalf("pushes %d sorted, %d scattered: both outputs must run", pushes[0], pushes[1])
	}
}

// TestMulIndexNeedsTheBuiltin: MulIndex has no general form, so an MxV with
// any index-form semiring but MinIndexUint32 as shipped — a literal, or the
// constructor with its terminal dropped — is an ErrInvalidValue, in either
// direction.
func TestMulIndexNeedsTheBuiltin(t *testing.T) {
	pat := patternFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, true)
	a := PatternAs[uint32](pat)
	noTerminal := MinIndexUint32()
	noTerminal.Add.Terminal = nil
	user := Semiring[uint32]{Add: Monoid[uint32]{Op: func(x, y uint32) uint32 { return min(x, y) }, Identity: ^uint32(0)}, Form: MulIndex}
	u, w := NewVector[uint32](4), NewVector[uint32](4)
	_ = u.SetElement(1, 1)
	for name, sr := range map[string]Semiring[uint32]{"literal": user, "no terminal": noTerminal} {
		for _, dir := range []Direction{Auto, ForcePush, ForcePull} {
			if _, err := Into(w).With(&Descriptor{Direction: dir}).MxV(sr, a, u); !errors.Is(err, ErrInvalidValue) {
				t.Fatalf("%s, direction %d: err = %v, want ErrInvalidValue", name, dir, err)
			}
		}
	}
	if _, err := Into(w).MxV(MinIndexUint32(), a, u); err != nil {
		t.Fatalf("MinIndexUint32: %v", err)
	}
}

// TestEditedBuiltinSemiringsFollowTheEdit: a constructor's value with
// Add.Op, Mul, Identity or Terminal reassigned computes what the edited
// semiring says — the same bits as the edit run through closures — and not
// what the constructor shipped.
func TestEditedBuiltinSemiringsFollowTheEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pat := secondFormGraphs(rng)["wide-directed"]
	n := pat.NRows()
	fview, uview := PatternAs[float64](pat), PatternAs[uint32](pat)
	weighted := valuedCopy(pat, func(k int) float64 { return float64(k%5) - 1 }) // negative weights: min.plus keeps falling
	ranks, labels := NewVector[float64](n), NewVector[uint32](n)
	for i := 0; i < n; i++ {
		_ = ranks.SetElement(i, float64(i%4)+0.5)
		_ = labels.SetElement(i, uint32(i%40)+3)
	}
	desc := &Descriptor{Transpose: true, Direction: ForcePull}
	two, half, seventeen := 2.0, 0.5, uint32(17)
	plusEdits := map[string]func(*Semiring[float64]){
		"Add.Op":   func(s *Semiring[float64]) { s.Add.Op = math.Max },
		"Identity": func(s *Semiring[float64]) { s.Add.Identity = 100 },
		"Terminal": func(s *Semiring[float64]) { s.Add.Terminal = &two },
	}
	minPlusEdits := map[string]func(*Semiring[float64]){
		"Add.Op":   func(s *Semiring[float64]) { s.Add.Op = math.Max },
		"Mul":      func(s *Semiring[float64]) { s.Mul = func(a, b float64) float64 { return a * b } },
		"Identity": func(s *Semiring[float64]) { s.Add.Identity = -5 },
		"Terminal": func(s *Semiring[float64]) { s.Add.Terminal = &half },
	}
	minSecondEdits := map[string]func(*Semiring[uint32]){
		"Add.Op":   func(s *Semiring[uint32]) { s.Add.Op = func(a, b uint32) uint32 { return max(a, b) } },
		"Identity": func(s *Semiring[uint32]) { s.Add.Identity = 10 },
		"Terminal": func(s *Semiring[uint32]) { s.Add.Terminal = &seventeen },
	}
	for field, edit := range plusEdits {
		followsEdit(t, "plus.second "+field, fview, PlusSecondFloat64(), edit, ranks, desc, math.Float64bits)
	}
	for field, edit := range minPlusEdits {
		followsEdit(t, "min.plus "+field, weighted, MinPlusFloat64(), edit, ranks, desc, math.Float64bits)
	}
	for field, edit := range minSecondEdits {
		followsEdit(t, "min.second "+field, uview, MinSecondUint32(), edit, labels, desc, func(x uint32) uint64 { return uint64(x) })
	}
}

func followsEdit[T comparable](t *testing.T, ctx string, a *Matrix[T], shipped Semiring[T], edit func(*Semiring[T]), u *Vector[T], desc *Descriptor, bits func(T) uint64) {
	t.Helper()
	edited := shipped
	edit(&edited)
	run := func(sr Semiring[T]) map[int]uint64 {
		w := NewVector[T](a.NRows())
		if _, err := Into(w).With(desc).MxV(sr, a, u); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		out := map[int]uint64{}
		w.Iterate(func(i int, x T) bool { out[i] = bits(x); return true })
		return out
	}
	got, want := run(edited), run(rewrapped(edited))
	if len(got) != len(want) {
		t.Fatalf("%s: the edited constructor value stores %d outputs, the edit through closures %d", ctx, len(got), len(want))
	}
	for i, x := range want {
		if y, ok := got[i]; !ok || y != x {
			t.Fatalf("%s: w[%d] has bits %#x (present %v) on the edited constructor value, %#x through closures", ctx, i, y, ok, x)
		}
	}
	if fmt.Sprint(got) == fmt.Sprint(run(shipped)) {
		t.Fatalf("%s: the edit changes nothing on this input, so the test proves nothing", ctx)
	}
}
