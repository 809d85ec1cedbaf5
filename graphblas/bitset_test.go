package graphblas

import (
	"errors"
	"math/rand"
	"testing"

	"pushpull/internal/core"
)

// TestBitsetObjectModel exercises the element-level API against a
// bitset-format vector.
func TestBitsetObjectModel(t *testing.T) {
	n := 131 // forces a partial tail word
	v := NewVector[int64](n)
	for _, i := range []int{0, 63, 64, 130} {
		if err := v.SetElement(i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	v.ToBitset()
	if v.Format() != Bitset || v.NVals() != 4 {
		t.Fatalf("format %v nvals %d", v.Format(), v.NVals())
	}
	if x, err := v.ExtractElement(64); err != nil || x != 64 {
		t.Fatalf("extract: %v %d", err, x)
	}
	if _, err := v.ExtractElement(65); !errors.Is(err, ErrNoValue) {
		t.Fatal("absent element not reported")
	}
	// In-place set and overwrite stay bitset.
	if err := v.SetElement(65, -1); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElement(65, 65); err != nil {
		t.Fatal(err)
	}
	if v.Format() != Bitset || v.NVals() != 5 {
		t.Fatalf("after set: format %v nvals %d", v.Format(), v.NVals())
	}
	var got []int
	v.Iterate(func(i int, x int64) bool {
		if int64(i) != x {
			t.Fatalf("iterate: %d -> %d", i, x)
		}
		got = append(got, i)
		return true
	})
	want := []int{0, 63, 64, 65, 130}
	if len(got) != len(want) {
		t.Fatalf("iterate order %v", got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("iterate order %v want %v", got, want)
		}
	}
	// Early-stop iteration.
	count := 0
	v.Iterate(func(int, int64) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop ran %d", count)
	}
	// Dup is deep.
	d := v.Dup()
	_ = d.SetElement(1, 1)
	if v.NVals() != 5 || d.NVals() != 6 {
		t.Fatal("Dup shares storage")
	}
	if _, err := v.ExtractElement(1); !errors.Is(err, ErrNoValue) {
		t.Fatal("Dup shares words")
	}
	// Clear resets to sparse and scrubs the words.
	v.Clear()
	if v.Format() != Sparse || v.NVals() != 0 {
		t.Fatal("Clear")
	}
	v.ToBitset()
	if v.NVals() != 0 {
		t.Fatal("stale bits survived Clear")
	}
}

// TestBitsetLatticeRoundTrips pins the conversion lattice: sparse→bitset→
// sparse preserves values, and a bitset filled element by element promotes
// to dense and converts back without losing any.
func TestBitsetLatticeRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(150)
		want := map[int]float64{}
		v := NewVector[float64](n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.4 {
				x := rng.NormFloat64()
				want[i] = x
				_ = v.SetElement(i, x)
			}
		}
		check := func(stage string, v *Vector[float64]) {
			if v.NVals() != len(want) {
				t.Fatalf("trial %d %s: nvals %d want %d", trial, stage, v.NVals(), len(want))
			}
			seen := 0
			v.Iterate(func(i int, x float64) bool {
				if wx, ok := want[i]; !ok || wx != x {
					t.Fatalf("trial %d %s: element %d = %v", trial, stage, i, x)
				}
				seen++
				return true
			})
			if seen != len(want) {
				t.Fatalf("trial %d %s: iterated %d", trial, stage, seen)
			}
		}
		v.ToBitset()
		check("sparse→bitset", v)
		v.ToSparse()
		check("bitset→sparse", v)
		v.ToBitset()
		for i := 0; i < n; i++ {
			if _, ok := want[i]; !ok {
				want[i] = float64(-i)
				_ = v.SetElement(i, float64(-i))
			}
		}
		if v.Format() != Dense {
			t.Fatalf("trial %d: full bitset stayed %v", trial, v.Format())
		}
		check("bitset→dense", v)
		v.ToBitset()
		check("dense→bitset", v)
		v.ToSparse()
		check("dense→sparse", v)
	}
}

// TestBitsetViewRecount pins BitsetView raw writes — element reads see
// them and a mask recounts them by popcount, though NVals does not — and
// the full-pattern Fill interaction.
func TestBitsetViewRecount(t *testing.T) {
	n := 100
	v := NewVector[bool](n)
	v.ToBitset()
	_, words := v.BitsetView()
	for i := 0; i < n; i += 2 {
		core.BitsetSet(words, i)
	}
	if got := v.maskNVals(); got != 50 {
		t.Fatalf("mask popcount = %d", got)
	}
	vals, _ := v.BitsetView()
	for i := 0; i < n; i += 2 {
		vals[i] = true
	}
	if x, err := v.ExtractElement(4); err != nil || x != true {
		t.Fatalf("extract after raw writes: %v %v", err, x)
	}
	// Fill densifies; converting back packs the all-true pattern.
	v.Fill(true)
	if v.Format() != Dense || v.NVals() != n {
		t.Fatalf("Fill: %v %d", v.Format(), v.NVals())
	}
	v.ToBitset()
	if v.Format() != Bitset || v.NVals() != n {
		t.Fatalf("dense→bitset: %v %d", v.Format(), v.NVals())
	}
}

// Package-level operator for the steady-state guard, so the measured
// closure captures only warm state.
var bsNotOp = func(x bool) bool { return !x }

// TestBitsetZeroAllocSteadyState is the satellite guard: bitset
// promote/demote cycles, bitset-masked MxV (pull with scmp word mask and
// push post-filter), Boolean apply over a bitset operand, the
// bitset-destination assigns — all 0 allocs/op once warm.
func TestBitsetZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard")
	}
	rng := rand.New(rand.NewSource(31))
	n := 512
	ab := randBoolMatrix(rng, n, 0.05)
	sr := OrAndBool()

	ws := NewWorkspace(n, n)

	frontier := NewVector[bool](n)
	for i := 0; i < n; i += 7 {
		_ = frontier.SetElement(i, true)
	}
	visited := NewVector[bool](n)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			_ = visited.SetElement(i, true)
		}
	}
	visited.ToBitset()
	u := NewVector[bool](n)
	for i := 0; i < n; i += 2 {
		_ = u.SetElement(i, true)
	}
	uBitset := u.Dup()
	uBitset.ToBitset()
	vBitset := visited.Dup()
	out := NewVector[bool](n)
	w := NewVector[bool](n)

	// A frontier this sparse pushes through the radix sort; the dense one
	// above takes the sort-free scatter.
	thin := NewVector[bool](n)
	_ = thin.SetElement(5, true)
	pullDesc := &Descriptor{Direction: ForcePull, StructuralComplement: true,
		StructureOnly: true, Workspace: ws}
	pushDesc := &Descriptor{Direction: ForcePush, Workspace: ws}
	ewDesc := &Descriptor{Workspace: ws}

	convert := NewVector[float64](n)
	for i := 0; i < n; i += 3 {
		_ = convert.SetElement(i, float64(i))
	}

	mergeTarget := visited.Dup()

	cases := []struct {
		name string
		run  func() error
	}{
		{"bitset-promote-demote", func() error {
			// The settle cycle a frontier rides at the push/pull crossover.
			convert.ToBitset()
			convert.ToSparse()
			return nil
		}},
		{"row-mask-bitset-scmp", func() error {
			// Masked pull under ¬visited with visited word-packed: the
			// word-masked row loop plus bitset-input bit probes.
			_, err := Into(w).Mask(visited).With(pullDesc).MxV(sr, ab, vBitset)
			return err
		}},
		{"col-mask-bitset", func() error {
			// Push with the bitset mask as post-merge filter.
			_, err := Into(w).Mask(visited).With(pushDesc).MxV(sr, ab, thin)
			return err
		}},
		{"col-scatter-bitset", func() error {
			// Sort-free push, the bitset mask tested per scattered edge.
			_, err := Into(w).Mask(visited).With(pushDesc).MxV(sr, ab, frontier)
			return err
		}},
		{"apply-bool-bitset", func() error {
			return Into(out).With(ewDesc).Apply(bsNotOp, uBitset)
		}},
		{"assign-vector-masked-bitset-dest", func() error {
			// A merge through a sparse mask into a bitset destination.
			return Into(mergeTarget).Mask(frontier).With(ewDesc).AssignVector(vBitset)
		}},
		{"assign-vector-into-bitset", func() error {
			// The BFS level loop's visited update: sparse result merged into
			// the bitset visited set, bits flipped in place.
			return Into(mergeTarget).With(ewDesc).AssignVector(frontier)
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err != nil { // warm
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
