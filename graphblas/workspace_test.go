package graphblas

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"pushpull/internal/core"
)

func randBoolMatrix(rng *rand.Rand, n int, p float64) *Matrix[bool] {
	var r, c []uint32
	var v []bool
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				r = append(r, uint32(i))
				c = append(c, uint32(j))
				v = append(v, true)
			}
		}
	}
	m, err := NewMatrixFromCOO(n, n, r, c, v, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func vectorsEqual[T comparable](t *testing.T, name string, a, b *Vector[T]) {
	t.Helper()
	if a.NVals() != b.NVals() {
		t.Fatalf("%s: nvals %d vs %d", name, a.NVals(), b.NVals())
	}
	av, ap := a.Dup().DenseView()
	bv, bp := b.Dup().DenseView()
	for i := range av {
		if ap[i] != bp[i] || (ap[i] && av[i] != bv[i]) {
			t.Fatalf("%s: mismatch at %d: (%v,%v) vs (%v,%v)", name, i, ap[i], av[i], bp[i], bv[i])
		}
	}
}

// TestMxVPinnedWorkspaceMatchesUnpinned iterates MxV under a pinned
// workspace and under per-call auto-pooling, in both directions with and
// without masks, asserting bit-identical outputs each iteration. The
// repeated iterations exercise exactly the buffer-reuse the workspace is
// for.
func TestMxVPinnedWorkspaceMatchesUnpinned(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	a := randBoolMatrix(rng, n, 0.1)
	sr := OrAndBool()
	ws := NewWorkspace(n, n)

	for _, dir := range []Direction{ForcePush, ForcePull} {
		for _, masked := range []bool{false, true} {
			u := NewVector[bool](n)
			for i := 0; i < n; i += 3 {
				_ = u.SetElement(i, true)
			}
			var mask *Vector[bool]
			if masked {
				mask = NewVector[bool](n)
				for i := 0; i < n; i += 2 {
					_ = mask.SetElement(i, true)
				}
				mask.ToDense()
			}
			pinned := &Descriptor{Transpose: true, Direction: dir, NoAutoConvert: true, Workspace: ws}
			plain := &Descriptor{Transpose: true, Direction: dir, NoAutoConvert: true}
			if dir == ForcePull {
				u.ToDense()
			}
			w1 := NewVector[bool](n)
			w2 := NewVector[bool](n)
			for iter := 0; iter < 4; iter++ {
				if _, err := Into(w1).Mask(mask).With(pinned).MxV(sr, a, u); err != nil {
					t.Fatal(err)
				}
				if _, err := Into(w2).Mask(mask).With(plain).MxV(sr, a, u); err != nil {
					t.Fatal(err)
				}
				vectorsEqual(t, "pinned vs plain", w1, w2)
			}
		}
	}
}

// TestMxVAliasedOperands covers w aliasing the input and w aliasing the
// mask, in both directions, under a pinned workspace — the configurations
// where the workspace's scratch vector bounce and storage swap engage.
func TestMxVAliasedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 50
	a := randBoolMatrix(rng, n, 0.12)
	sr := OrAndBool()
	ws := NewWorkspace(n, n)

	for _, dir := range []Direction{ForcePush, ForcePull} {
		desc := &Descriptor{Transpose: true, Direction: dir, NoAutoConvert: true, Workspace: ws}

		// w aliases u: w ← Aᵀw, twice, against an unaliased oracle.
		w := NewVector[bool](n)
		oracle := NewVector[bool](n)
		uRef := NewVector[bool](n)
		for i := 0; i < n; i += 4 {
			_ = w.SetElement(i, true)
			_ = uRef.SetElement(i, true)
		}
		if dir == ForcePull {
			w.ToDense()
			uRef.ToDense()
		}
		for iter := 0; iter < 2; iter++ {
			if _, err := Into(oracle).With(desc).MxV(sr, a, uRef); err != nil {
				t.Fatal(err)
			}
			if _, err := Into(w).With(desc).MxV(sr, a, w); err != nil {
				t.Fatal(err)
			}
			vectorsEqual(t, "w aliases u", w, oracle)
			// Feed the oracle's output back as its next input.
			uRef = oracle.Dup()
			if dir == ForcePull {
				uRef.ToDense()
			} else {
				uRef.ToSparse()
			}
		}

		// w aliases the mask: w⟨¬w⟩ ← Aᵀu.
		wm := NewVector[bool](n)
		for i := 0; i < n; i += 5 {
			_ = wm.SetElement(i, true)
		}
		wm.ToDense() // mask bitmaps are handed out zero-copy from dense vectors
		maskCopy := wm.Dup()
		u := NewVector[bool](n)
		for i := 1; i < n; i += 3 {
			_ = u.SetElement(i, true)
		}
		if dir == ForcePull {
			u.ToDense()
		}
		scmp := &Descriptor{Transpose: true, Direction: dir, NoAutoConvert: true, StructuralComplement: true, Workspace: ws}
		want := NewVector[bool](n)
		if _, err := Into(want).Mask(maskCopy).With(scmp).MxV(sr, a, u); err != nil {
			t.Fatal(err)
		}
		if _, err := Into(wm).Mask(wm).With(scmp).MxV(sr, a, u); err != nil {
			t.Fatal(err)
		}
		vectorsEqual(t, "w aliases mask", wm, want)
	}
}

// TestWorkspacePoolRoundTrip checks that the workspace pool is the kernel
// arena's only pool: a released Workspace re-acquired for the same shape
// comes back with the same kernel arena, and its first push allocates
// nothing because the arena's gather and sort buffers are still warm.
func TestWorkspacePoolRoundTrip(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC cycle empties the pool
	rng := rand.New(rand.NewSource(45))
	n := 123
	a := randBoolMatrix(rng, n, 0.05)
	sr := OrAndBool()
	u := NewVector[bool](n)
	for i := 0; i < n; i += 2 {
		_ = u.SetElement(i, true)
	}
	w := NewVector[bool](n)
	push := func(ws *Workspace) {
		if _, err := Into(w).With(descFor(ForcePush, ws)).MxV(sr, a, u); err != nil {
			t.Fatal(err)
		}
	}

	ws := AcquireWorkspace(n, n)
	push(ws)
	kernel := ws.kernel
	ws.Release()
	ws2 := AcquireWorkspace(n, n)
	defer ws2.Release()
	if ws2 != ws {
		t.Skip("pool did not recycle (a dropped Put or another P); nothing to assert")
	}
	if ws2.kernel != kernel {
		t.Fatal("recycled workspace lost its kernel arena")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	push(ws2)
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Fatalf("first push on the recycled workspace made %d allocations, want 0", d)
	}
}

// TestMxVSteadyStateAllocs asserts the headline property: with a pinned
// workspace, a warmed-up MxV allocates nothing in any of the four kernel
// configurations, including with a sparse mask (which materializes into the
// workspace bitmap).
func TestMxVSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(5))
	n := 200
	a := randBoolMatrix(rng, n, 0.05)
	sr := OrAndBool()
	ws := NewWorkspace(n, n)

	u := NewVector[bool](n)
	for i := 0; i < n; i += 6 {
		_ = u.SetElement(i, true)
	}
	denseU := u.Dup()
	denseU.ToDense()
	mask := NewVector[bool](n)
	for i := 0; i < n; i += 4 {
		_ = mask.SetElement(i, true)
	}
	denseMask := mask.Dup()
	denseMask.ToDense()
	w := NewVector[bool](n)
	accumW := NewVector[bool](n)

	cases := []struct {
		name string
		run  func() error
	}{
		{"row-nomask", func() error {
			desc := descFor(ForcePull, ws)
			_, err := Into(w).With(desc).MxV(sr, a, denseU)
			return err
		}},
		{"row-mask", func() error {
			desc := descFor(ForcePull, ws)
			_, err := Into(w).Mask(denseMask).With(desc).MxV(sr, a, denseU)
			return err
		}},
		{"col-nomask", func() error {
			desc := descFor(ForcePush, ws)
			_, err := Into(w).With(desc).MxV(sr, a, u)
			return err
		}},
		{"col-mask", func() error {
			desc := descFor(ForcePush, ws)
			_, err := Into(w).Mask(denseMask).With(desc).MxV(sr, a, u)
			return err
		}},
		{"col-sparse-mask", func() error {
			desc := descFor(ForcePush, ws)
			_, err := Into(w).Mask(mask).With(desc).MxV(sr, a, u)
			return err
		}},
		{"col-bitmap-output", func() error {
			// Forced push without NoAutoConvert: the planner's sort-free
			// bitmap scatter engages (the frontier's edges exceed n/4).
			bitmapOutDesc.Workspace = ws
			_, err := Into(w).With(bitmapOutDesc).MxV(sr, a, u)
			return err
		}},
		{"masked-assign-scmp-sparse-mask", func() error {
			// The masked element-wise assign with a sparse complemented
			// mask: the bitmap must come from the workspace, not a fresh
			// O(n) allocation.
			scmpDesc.Workspace = ws
			return Into(w).Mask(mask).With(scmpDesc).AssignScalar(true)
		}},
		{"accum-sparse-target", func() error {
			// Accumulate into a sparse destination: the format-preserving
			// merge must run in workspace scratch.
			desc := descFor(ForcePush, ws)
			_, err := Into(accumW).Accum(orOp).With(desc).MxV(sr, a, u)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err != nil { // warm the workspace
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: %v allocs per warmed MxV, want 0", tc.name, avg)
		}
	}
}

// Descriptors and operands for the extra steady-state cases, built outside
// the measured region.
var (
	bitmapOutDesc = &Descriptor{Transpose: true, Direction: ForcePush}
	scmpDesc      = &Descriptor{StructuralComplement: true}
	orOp          = func(a, b bool) bool { return a || b }
)

// TestTimedPlannerSteadyStateAllocs pins the feedback path's cost: a
// masked MxV running under a calibrated cost model, with the kernel-timing
// clock, a Plan sink and the online corrector all engaged, must still
// allocate nothing once the workspace is warm — the monotonic-clock reads
// and the EWMA update are allocation-free by construction.
func TestTimedPlannerSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(7))
	n := 200
	a := randBoolMatrix(rng, n, 0.05)
	sr := OrAndBool()
	ws := NewWorkspace(n, n)

	u := NewVector[bool](n)
	for i := 0; i < n; i += 5 {
		_ = u.SetElement(i, true)
	}
	mask := NewVector[bool](n)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			_ = mask.SetElement(i, true)
		}
	}
	mask.ToBitset()
	w := NewVector[bool](n)

	model := &core.CostModel{
		GatherNs: 2, ProbeBoolNs: 2, ProbeWordNs: 1, ProbeDenseNs: 0.5,
		RowNs: 3, ScatterNs: 2, SortNs: 2, SetupNs: 400,
	}
	var plan core.Plan
	var corr core.Corrector
	desc := &Descriptor{
		Transpose:            true,
		StructuralComplement: true,
		Workspace:            ws,
		CostModel:            model,
		Corrector:            &corr,
		Plan:                 &plan,
	}
	run := func() {
		if _, err := Into(w).Mask(mask).With(desc).MxV(sr, a, u); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the workspace and the corrector
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("timed+corrected masked MxV: %v allocs per warmed call, want 0", avg)
	}
	if plan.MeasuredNs <= 0 {
		t.Fatalf("kernel timing missing from the plan sink: %+v", plan)
	}
	if plan.PredictedNs <= 0 {
		t.Fatalf("calibrated prediction missing from the plan sink: %+v", plan)
	}
	if corr.Observations(plan.Dir) == 0 {
		t.Fatal("corrector never observed the timed kernel")
	}
}

// Operators for the apply/select/assign steady-state cases, package-level
// so the measured region never constructs a closure.
var (
	minOpVar = MinPlusFloat64().Add.Op
	triple   = func(x float64) float64 { return 3 * x }
	stampIdx = func(i int, _ float64) float64 { return float64(i) }
	posPred  = func(_ int, x float64) bool { return x > 0 }
)

// TestOpsSteadyStateAllocs extends the zero-alloc guarantee to the whole
// pipeline: masked and accumulating apply, select and assign calls with a
// pinned workspace must allocate nothing once warm,
// in both the sparse-out and bitmap-out kernel configurations.
func TestOpsSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(12))
	n := 200
	ws := NewWorkspace(n, n)
	desc := &Descriptor{Workspace: ws}
	scmpWsDesc := &Descriptor{StructuralComplement: true, Workspace: ws}

	newSparse := func(stride, off int) *Vector[float64] {
		v := NewVector[float64](n)
		for i := off; i < n; i += stride {
			_ = v.SetElement(i, float64(i+1))
		}
		return v
	}
	uS := newSparse(3, 0)
	uB := newSparse(3, 0)
	uB.ToBitmap()
	sparseMask := newSparse(5, 0)
	bitmapMask := newSparse(2, 1)
	bitmapMask.ToBitmap()

	w := NewVector[float64](n)
	accumW := NewVector[float64](n)
	accumW.Fill(100)

	cases := []struct {
		name string
		run  func() error
	}{
		{"apply-masked-sparse", func() error {
			return Into(w).Mask(sparseMask).With(desc).Apply(triple, uS)
		}},
		{"apply-bitmap-masked-scmp", func() error {
			// A complemented sparse mask lowers through the pinned workspace.
			return Into(w).Mask(sparseMask).With(scmpWsDesc).Apply(triple, uB)
		}},
		{"apply-masked-bitmap-accum", func() error {
			return Into(accumW).Mask(bitmapMask).Accum(minOpVar).With(desc).Apply(triple, uB)
		}},
		{"apply-indexed-inplace", func() error {
			return Into(uB).With(desc).ApplyIndexed(stampIdx, uB)
		}},
		{"apply-aliased-masked", func() error {
			return Into(uB).Mask(bitmapMask).With(desc).Apply(triple, uB)
		}},
		{"select-masked", func() error {
			return Into(w).Mask(sparseMask).With(desc).Select(posPred, uS)
		}},
		{"assign-vector-masked", func() error {
			return Into(accumW).Mask(bitmapMask).With(desc).AssignVector(uB)
		}},
		{"assign-scalar-accum", func() error {
			return Into(accumW).Mask(sparseMask).Accum(minOpVar).With(desc).AssignScalar(7)
		}},
	}
	_ = rng
	for _, tc := range cases {
		if err := tc.run(); err != nil { // warm the workspace
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: %v allocs per warmed op, want 0", tc.name, avg)
		}
	}
}

// TestMxVDenseMaskStaleNVals guards the KnownEmpty derivation: a dense
// mask whose presence bitmap was written raw through DenseView (no
// RecountDense — so NVals() is a stale 0) must still mask by its bitmap,
// not be treated as empty. Covers both the plain ("allows nothing" would
// wrongly empty the output) and complemented ("allows everything" would
// wrongly skip the filter) fast paths, in both directions.
func TestMxVDenseMaskStaleNVals(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 40
	a := randBoolMatrix(rng, n, 0.15)
	sr := OrAndBool()
	u := NewVector[bool](n)
	for i := 0; i < n; i += 3 {
		_ = u.SetElement(i, true)
	}
	denseU := u.Dup()
	denseU.ToDense()

	stale := NewVector[bool](n)
	stale.ToDense()
	_, bits := stale.DenseView()
	honest := NewVector[bool](n)
	for i := 0; i < n; i += 4 {
		bits[i] = true // bypasses nvals bookkeeping on purpose
		_ = honest.SetElement(i, true)
	}
	honest.ToDense()
	if stale.NVals() != 0 {
		t.Fatalf("test setup: expected stale nvals 0, got %d", stale.NVals())
	}

	for _, dir := range []Direction{ForcePush, ForcePull} {
		for _, scmp := range []bool{false, true} {
			desc := &Descriptor{Transpose: true, Direction: dir, NoAutoConvert: true, StructuralComplement: scmp}
			in := u
			if dir == ForcePull {
				in = denseU
			}
			got := NewVector[bool](n)
			want := NewVector[bool](n)
			if _, err := Into(got).Mask(stale).With(desc).MxV(sr, a, in); err != nil {
				t.Fatal(err)
			}
			if _, err := Into(want).Mask(honest).With(desc).MxV(sr, a, in); err != nil {
				t.Fatal(err)
			}
			vectorsEqual(t, "stale-nvals dense mask", got, want)
		}
	}
}

// descFor builds the descriptors outside the measured region; the structs
// themselves live on the stack, so constructing them per call is free.
var descCache = map[Direction]*Descriptor{}

func descFor(dir Direction, ws *Workspace) *Descriptor {
	d, ok := descCache[dir]
	if !ok {
		d = &Descriptor{Transpose: true, NoAutoConvert: true, Direction: dir}
		descCache[dir] = d
	}
	d.Workspace = ws
	return d
}
