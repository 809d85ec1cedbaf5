package graphblas

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"pushpull/internal/core"
)

// randMatrix builds a random nr×nc float64 matrix with the given density.
func randMatrix(rng *rand.Rand, nr, nc int, density float64) *Matrix[float64] {
	var r, c []uint32
	var v []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < density {
				r = append(r, uint32(i))
				c = append(c, uint32(j))
				v = append(v, 1+rng.Float64())
			}
		}
	}
	m, err := NewMatrixFromCOO(nr, nc, r, c, v, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func randVec(rng *rand.Rand, n int, density float64) *Vector[float64] {
	v := NewVector[float64](n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			_ = v.SetElement(i, 1+rng.Float64())
		}
	}
	return v
}

// oracleMxV computes (A·u).⊙mask densely, honouring transpose and scmp.
func oracleMxV(a *Matrix[float64], u *Vector[float64], mask *Vector[bool], scmp, transpose bool, s Semiring[float64]) map[int]float64 {
	nr, nc := a.NRows(), a.NCols()
	if transpose {
		nr, nc = nc, nr
	}
	get := func(i, j int) (float64, bool) {
		if transpose {
			i, j = j, i
		}
		x, err := a.ExtractElement(i, j)
		return x, err == nil
	}
	out := map[int]float64{}
	for i := 0; i < nr; i++ {
		if mask != nil {
			_, err := mask.ExtractElement(i)
			present := err == nil
			if present == scmp {
				continue
			}
		}
		acc := s.Add.Identity
		any := false
		for j := 0; j < nc; j++ {
			aij, ok := get(i, j)
			if !ok {
				continue
			}
			uj, err := u.ExtractElement(j)
			if err != nil {
				continue
			}
			acc = s.Add.Op(acc, s.Mul(aij, uj))
			any = true
		}
		if any {
			out[i] = acc
		}
	}
	return out
}

func vecEquals(t *testing.T, ctx string, got *Vector[float64], want map[int]float64) {
	t.Helper()
	if got.NVals() != len(want) {
		t.Fatalf("%s: nvals=%d want %d", ctx, got.NVals(), len(want))
	}
	got.Iterate(func(i int, x float64) bool {
		w, ok := want[i]
		if !ok {
			t.Fatalf("%s: spurious element at %d", ctx, i)
		}
		if d := x - w; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: w[%d]=%g want %g", ctx, i, x, w)
		}
		return true
	})
}

func TestMxVAgainstOracleAllDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	s := PlusTimesFloat64()
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		a := randMatrix(rng, n, n, 0.2)
		u := randVec(rng, n, 0.4)
		want := oracleMxV(a, u, nil, false, false, s)
		for _, dir := range []Direction{ForcePush, ForcePull, Auto} {
			w := NewVector[float64](n)
			uc := u.Dup()
			if _, err := Into(w).With(&Descriptor{Direction: dir}).MxV(s, a, uc); err != nil {
				t.Fatalf("trial %d dir %v: %v", trial, dir, err)
			}
			vecEquals(t, "unmasked", w, want)
		}
	}
}

func TestMxVMaskedWithComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := PlusTimesFloat64()
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		a := randMatrix(rng, n, n, 0.25)
		u := randVec(rng, n, 0.5)
		mask := NewVector[bool](n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = mask.SetElement(i, true)
			}
		}
		for _, scmp := range []bool{false, true} {
			for _, dir := range []Direction{ForcePush, ForcePull} {
				want := oracleMxV(a, u, mask, scmp, false, s)
				w := NewVector[float64](n)
				desc := &Descriptor{Direction: dir, StructuralComplement: scmp}
				if _, err := Into(w).Mask(mask).With(desc).MxV(s, a, u.Dup()); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				vecEquals(t, "masked", w, want)
			}
		}
	}
}

// TestMxVTransposeAndVxM: GrB_vxm's uᵀ·A is spelled MxV with
// Descriptor.Transpose; it must equal Aᵀ·u under either kernel.
func TestMxVTransposeAndVxM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := PlusTimesFloat64()
	for trial := 0; trial < 15; trial++ {
		nr, nc := 1+rng.Intn(20), 1+rng.Intn(20)
		a := randMatrix(rng, nr, nc, 0.3)
		u := randVec(rng, nr, 0.5) // multiplies Aᵀ so length nr
		want := oracleMxV(a, u, nil, false, true, s)
		w := NewVector[float64](nc)
		if _, err := Into(w).With(&Descriptor{Transpose: true}).MxV(s, a, u.Dup()); err != nil {
			t.Fatalf("transpose: %v", err)
		}
		vecEquals(t, "transpose", w, want)
		for _, dir := range []Direction{ForcePush, ForcePull} {
			w2 := NewVector[float64](nc)
			if _, err := Into(w2).With(&Descriptor{Transpose: true, Direction: dir}).MxV(s, a, u.Dup()); err != nil {
				t.Fatalf("vxm %v: %v", dir, err)
			}
			vecEquals(t, "vxm", w2, want)
		}
	}
}

func TestMxVAliasedOutput(t *testing.T) {
	// f ← Aᵀ·f — the BFS shape — must work for both kernels.
	rng := rand.New(rand.NewSource(43))
	s := PlusTimesFloat64()
	for _, dir := range []Direction{ForcePush, ForcePull} {
		n := 20
		a := randMatrix(rng, n, n, 0.3)
		f := randVec(rng, n, 0.3)
		want := oracleMxV(a, f, nil, false, false, s)
		if _, err := Into(f).With(&Descriptor{Direction: dir}).MxV(s, a, f); err != nil {
			t.Fatalf("dir %v: %v", dir, err)
		}
		vecEquals(t, "aliased", f, want)
	}
}

func TestMxVAliasedMask(t *testing.T) {
	// w ← (A·u)⟨¬w⟩ with the mask aliasing the output (dense mask path).
	rng := rand.New(rand.NewSource(44))
	s := PlusTimesFloat64()
	n := 25
	a := randMatrix(rng, n, n, 0.3)
	u := randVec(rng, n, 0.5)
	w := randVec(rng, n, 0.3)
	w.ToBitset()
	maskSnapshot := w.Dup()
	want := oracleMxV(a, u, boolPattern(maskSnapshot), true, false, s)
	if _, err := Into(w).Mask(w).With(&Descriptor{StructuralComplement: true, Direction: ForcePull}).MxV(s, a, u); err != nil {
		t.Fatal(err)
	}
	vecEquals(t, "aliased mask", w, want)
}

// boolPattern converts a float vector to a bool vector with the same
// pattern (oracle helper).
func boolPattern(v *Vector[float64]) *Vector[bool] {
	out := NewVector[bool](v.Size())
	v.Iterate(func(i int, _ float64) bool {
		_ = out.SetElement(i, true)
		return true
	})
	return out
}

func TestMxVDimensionErrors(t *testing.T) {
	s := PlusTimesFloat64()
	a := randMatrix(rand.New(rand.NewSource(46)), 4, 6, 0.5)
	w4, w6 := NewVector[float64](4), NewVector[float64](6)
	u4, u6 := NewVector[float64](4), NewVector[float64](6)
	mask6 := NewVector[bool](6)
	if _, err := Into(w4).MxV(s, a, u4); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad input dim: %v", err)
	}
	if _, err := Into(w6).MxV(s, a, u6); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad output dim: %v", err)
	}
	if _, err := Into(w4).Mask(mask6).MxV(s, a, u6); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad mask dim: %v", err)
	}
	if _, err := Into[float64](nil).MxV(s, a, u6); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("nil output: %v", err)
	}
	// Transposed dims flip.
	if _, err := Into(w6).With(&Descriptor{Transpose: true}).MxV(s, a, u4); err != nil {
		t.Fatalf("transposed dims should conform: %v", err)
	}
}

func TestMxVAutoSwitchesDirection(t *testing.T) {
	// A growing frontier on a dense-ish graph must trigger push→pull; the
	// returned directions witness Optimization 1 happening.
	rng := rand.New(rand.NewSource(47))
	n := 500
	a := randMatrix(rng, n, n, 0.05)
	s := PlusTimesFloat64()
	f := NewVector[float64](n)
	_ = f.SetElement(rng.Intn(n), 1)
	dirs := []core.Direction{}
	for it := 0; it < 4; it++ {
		w := NewVector[float64](n)
		d, err := Into(w).MxV(s, a, f)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
		f = w
	}
	if dirs[0] != core.Push {
		t.Fatalf("first iteration should push, got %v", dirs)
	}
	sawPull := false
	for _, d := range dirs {
		if d == core.Pull {
			sawPull = true
		}
	}
	if !sawPull {
		t.Fatalf("frontier grew to %d/%d but never pulled: %v", f.NVals(), n, dirs)
	}
}

// TestMxVSparsePullPricedAtWordRate: an Auto MxV prices a pull that would
// read a sparse input at the word rate, because the kernel packs that input
// into words before it probes. The model is loaded from a profile that
// still carries the retired byte rate, set apart from the word rate, so a
// planner pricing the pull at the byte rate is caught.
func TestMxVSparsePullPricedAtWordRate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 64
	a := randMatrix(rng, n, n, 0.1)
	u := randVec(rng, n, 0.5)
	if u.Format() != Sparse {
		t.Fatalf("setup: input is %v, want sparse", u.Format())
	}
	var m core.CostModel
	profile := `{"probe_bool_ns": 0.5, "probe_word_ns": 0.75, "row_ns": 3, "gather_ns": 2, "sort_ns": 1, "setup_ns": 100}`
	if err := json.Unmarshal([]byte(profile), &m); err != nil {
		t.Fatal(err)
	}
	var plan core.Plan
	if _, err := Into(NewVector[float64](n)).With(&Descriptor{CostModel: &m, Plan: &plan}).MxV(PlusTimesFloat64(), a, u); err != nil {
		t.Fatal(err)
	}
	d := core.AvgRowDegree(a.NVals(), n)
	if want := m.SetupNs + float64(n)*(m.RowNs+d*m.ProbeWordNs); math.Abs(plan.PullCost-want) > 1e-9*want {
		t.Fatalf("sparse pull priced at %g, want %g (the word rate %g per probe)", plan.PullCost, want, m.ProbeWordNs)
	}
}

// TestMxVPlanRecordsPricedWork ties the record to the formula: for planned
// and forced MxVs, under the unit model and a calibrated one, the model's
// price of the plan's recorded Work is the chosen direction's uncorrected
// estimate — PredictedNs when calibrated (the corrector scales PushCost and
// PullCost), the chosen cost under the unit model (which the corrector
// never scales). The runs cover every priced kernel variant: a pull over a
// word-packed and over a dense input, a sorted push and a scatter push.
func TestMxVPlanRecordsPricedWork(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 400
	a := randMatrix(rng, n, n, 0.03)
	sr := PlusTimesFloat64()
	calibrated := core.CostModel{
		GatherNs: 2.6, ProbeWordNs: 0.56, ProbeDenseNs: 0.1,
		RowNs: 7.6, ScatterNs: 1.7, ClearNs: 0.3, SortNs: 0.85, SetupNs: 250,
	}
	for _, model := range []core.CostModel{{}, calibrated} {
		pricing := model
		if !model.Calibrated() {
			pricing = core.UnitModel
		}
		seen := map[core.Term]bool{}
		for _, dir := range []Direction{Auto, ForcePush, ForcePull} {
			desc, plan := NewWorkspace(n, n).PlannedDescriptor(Descriptor{Direction: dir, CostModel: &model})
			check := func(u *Vector[float64]) *Vector[float64] {
				t.Helper()
				w := NewVector[float64](n)
				if _, err := Into(w).With(desc).MxV(sr, a, u); err != nil {
					t.Fatal(err)
				}
				want := plan.PredictedNs
				if !model.Calibrated() {
					want = plan.PushCost
					if plan.Dir == core.Pull {
						want = plan.PullCost
					}
				}
				if got := pricing.Price(plan.Work); got != want || want <= 0 {
					t.Fatalf("calibrated=%v %v: Work %v prices at %g, the plan's uncorrected estimate is %g (%+v)",
						model.Calibrated(), dir, plan.Work, got, want, *plan)
				}
				for term, count := range plan.Work {
					seen[core.Term(term)] = seen[core.Term(term)] || count > 0
				}
				return w
			}
			f := NewVector[float64](n)
			_ = f.SetElement(rng.Intn(n), 1)
			for it := 0; it < 5; it++ {
				f = check(f)
			}
			dense := NewVector[float64](n)
			dense.Fill(1)
			check(dense)
		}
		for _, term := range []core.Term{core.TermProbeWord, core.TermProbeDense, core.TermSort, core.TermScatter} {
			if !seen[term] {
				t.Errorf("calibrated=%v: no run counted %s", model.Calibrated(), core.Terms[term].Key)
			}
		}
	}
}

func TestMxVStructureOnlyBoolean(t *testing.T) {
	// Structure-only must give identical results for the Boolean semiring.
	rng := rand.New(rand.NewSource(48))
	n := 40
	var r, c []uint32
	var v []bool
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.2 {
				r = append(r, uint32(i))
				c = append(c, uint32(j))
				v = append(v, true)
			}
		}
	}
	a, err := NewMatrixFromCOO(n, n, r, c, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := NewVector[bool](n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			_ = u.SetElement(i, true)
		}
	}
	s := OrAndBool()
	for _, dir := range []Direction{ForcePush, ForcePull} {
		w1 := NewVector[bool](n)
		w2 := NewVector[bool](n)
		if _, err := Into(w1).With(&Descriptor{Direction: dir}).MxV(s, a, u.Dup()); err != nil {
			t.Fatal(err)
		}
		if _, err := Into(w2).With(&Descriptor{Direction: dir, StructureOnly: true}).MxV(s, a, u.Dup()); err != nil {
			t.Fatal(err)
		}
		if w1.NVals() != w2.NVals() {
			t.Fatalf("dir %v: structure-only changed pattern: %d vs %d", dir, w1.NVals(), w2.NVals())
		}
		w1.Iterate(func(i int, x bool) bool {
			y, err := w2.ExtractElement(i)
			if err != nil || x != y {
				t.Fatalf("dir %v: mismatch at %d", dir, i)
			}
			return true
		})
	}
}

func TestMxVMaskAllowList(t *testing.T) {
	// The amortized unvisited-list must give identical results to the
	// bitmap scan.
	rng := rand.New(rand.NewSource(49))
	s := PlusTimesFloat64()
	n := 60
	a := randMatrix(rng, n, n, 0.2)
	u := randVec(rng, n, 0.9)
	mask := NewVector[bool](n)
	var allow []uint32
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			_ = mask.SetElement(i, true)
		} else {
			allow = append(allow, uint32(i)) // complement
		}
	}
	mask.ToBitset()
	w1 := NewVector[float64](n)
	if _, err := Into(w1).Mask(mask).With(&Descriptor{StructuralComplement: true, Direction: ForcePull}).MxV(s, a, u.Dup()); err != nil {
		t.Fatal(err)
	}
	w2 := NewVector[float64](n)
	desc := &Descriptor{StructuralComplement: true, Direction: ForcePull, MaskAllowList: allow}
	if _, err := Into(w2).Mask(mask).With(desc).MxV(s, a, u.Dup()); err != nil {
		t.Fatal(err)
	}
	if w1.NVals() != w2.NVals() {
		t.Fatalf("allow-list changed pattern: %d vs %d", w1.NVals(), w2.NVals())
	}
	w1.Iterate(func(i int, x float64) bool {
		y, err := w2.ExtractElement(i)
		if err != nil || x != y {
			t.Fatalf("allow-list mismatch at %d", i)
		}
		return true
	})
}
