package graphblas

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pushpull/internal/core"
)

func TestVectorBasicOps(t *testing.T) {
	v := NewVector[float64](10)
	if v.Size() != 10 || v.NVals() != 0 || v.Format() != Sparse {
		t.Fatal("fresh vector state wrong")
	}
	if err := v.SetElement(3, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElement(7, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := v.SetElement(3, 9.5); err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 2 {
		t.Fatalf("NVals=%d want 2", v.NVals())
	}
	got, err := v.ExtractElement(3)
	if err != nil || got != 9.5 {
		t.Fatalf("ExtractElement(3)=%g,%v", got, err)
	}
	if _, err := v.ExtractElement(4); !errors.Is(err, ErrNoValue) {
		t.Fatalf("missing element: %v", err)
	}
	if err := v.SetElement(10, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("out of bounds set: %v", err)
	}
	if _, err := v.ExtractElement(-1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("out of bounds extract: %v", err)
	}
}

func TestVectorDensePromotionLattice(t *testing.T) {
	// Filling a bitset vector's pattern promotes it to Dense for free; a
	// partial one never promotes.
	n := 4
	v := NewVector[int64](n)
	v.ToBitset()
	for i := 0; i < n; i++ {
		if v.Format() != Bitset {
			t.Fatalf("partial vector (%d of %d) is %v, want bitset", i, n, v.Format())
		}
		if err := v.SetElement(i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Format() != Dense {
		t.Fatalf("full bitset should promote to dense, got %v", v.Format())
	}
	if v.NVals() != n {
		t.Fatalf("dense NVals=%d want %d", v.NVals(), n)
	}
	if x, err := v.ExtractElement(1); err != nil || x != 1 {
		t.Fatalf("dense extract=%d,%v", x, err)
	}

	// Fill is the explicit pattern-changing densification.
	f := NewVector[float64](3)
	_ = f.SetElement(1, 9)
	f.Fill(0.5)
	if f.Format() != Dense || f.NVals() != 3 {
		t.Fatalf("Fill: format=%v nvals=%d", f.Format(), f.NVals())
	}
	if x, _ := f.ExtractElement(1); x != 0.5 {
		t.Fatalf("Fill overwrote to %g, want 0.5", x)
	}

	// Dense converts to bitset in O(1) via ToBitset and sparsifies cleanly.
	f.ToBitset()
	if f.Format() != Bitset || f.NVals() != 3 {
		t.Fatalf("dense→bitset: %v nvals=%d", f.Format(), f.NVals())
	}
	f.ToSparse()
	if f.Format() != Sparse || f.NVals() != 3 {
		t.Fatalf("bitset→sparse: %v nvals=%d", f.Format(), f.NVals())
	}
}

func TestVectorBuild(t *testing.T) {
	v := NewVector[int64](8)
	err := v.Build([]uint32{5, 1, 5, 3}, []int64{10, 20, 30, 40}, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 3 {
		t.Fatalf("NVals=%d want 3", v.NVals())
	}
	if x, _ := v.ExtractElement(5); x != 40 {
		t.Fatalf("dup fold=%d want 40", x)
	}
	// Last write wins without dup.
	v2 := NewVector[int64](8)
	if err := v2.Build([]uint32{5, 5}, []int64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if x, _ := v2.ExtractElement(5); x != 2 {
		t.Fatalf("last write=%d want 2", x)
	}
	if err := v2.Build([]uint32{9}, []int64{1}, nil); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("bad index: %v", err)
	}
	if err := v2.Build([]uint32{1, 2}, []int64{1}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("len mismatch: %v", err)
	}
}

func TestVectorConversionRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		v := NewVector[float64](n)
		ref := map[int]float64{}
		for k := 0; k < rng.Intn(60); k++ {
			i := rng.Intn(n)
			x := rng.Float64()
			ref[i] = x
			if v.SetElement(i, x) != nil {
				return false
			}
		}
		check := func() bool {
			if v.NVals() != len(ref) {
				return false
			}
			ok := true
			v.Iterate(func(i int, x float64) bool {
				if ref[i] != x {
					ok = false
					return false
				}
				return true
			})
			return ok
		}
		v.ToBitset()
		if !check() {
			return false
		}
		v.ToSparse()
		if !check() {
			return false
		}
		v.ToBitset()
		v.ToBitset() // idempotent
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorIterateOrderAndEarlyStop(t *testing.T) {
	v := NewVector[int64](10)
	for _, i := range []int{7, 2, 5} {
		if err := v.SetElement(i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []int
	v.Iterate(func(i int, _ int64) bool {
		seen = append(seen, i)
		return true
	})
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 5 || seen[2] != 7 {
		t.Fatalf("iterate order = %v", seen)
	}
	count := 0
	v.Iterate(func(int, int64) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
	// Bitset iteration hits the same elements.
	v.ToBitset()
	seen = seen[:0]
	v.Iterate(func(i int, _ int64) bool {
		seen = append(seen, i)
		return true
	})
	if len(seen) != 3 || seen[0] != 2 {
		t.Fatalf("bitset iterate = %v", seen)
	}
}

func TestVectorDup(t *testing.T) {
	v := NewVector[float64](6)
	_ = v.SetElement(1, 1.5)
	v.ToBitset()
	d := v.Dup()
	_ = d.SetElement(2, 2.5)
	if v.NVals() != 1 || d.NVals() != 2 {
		t.Fatal("Dup is not independent")
	}
	if d.Format() != Bitset {
		t.Fatal("Dup lost format")
	}
}

func TestVectorClear(t *testing.T) {
	v := NewVector[bool](4)
	_ = v.SetElement(0, true)
	v.ToBitset()
	v.Clear()
	if v.NVals() != 0 || v.Format() != Sparse {
		t.Fatal("Clear did not reset")
	}
	if _, err := v.ExtractElement(0); !errors.Is(err, ErrNoValue) {
		t.Fatal("element survived Clear")
	}
}

func TestSettleFormatFollowsPlannedDirection(t *testing.T) {
	// Format follows the planned direction, with the plan's trend as the
	// hysteresis gate.
	n := 1000
	v := NewVector[bool](n)
	for i := 0; i < 5; i++ {
		_ = v.SetElement(i, true)
	}

	// A pull plan needs O(1) probes: sparse converts to the word-packed
	// bitset (single-bit probes at 1/8 the bitmap footprint).
	v.settleFormat(core.Plan{Dir: core.Pull})
	if v.Format() != Bitset {
		t.Fatalf("pull plan left format %v", v.Format())
	}

	// A push plan on a bitset above the switch-point keeps the bitset
	// (the kernel compacts a view; no storage churn at the crossover).
	for i := 5; i < 50; i++ {
		_ = v.SetElement(i, true)
	}
	v.settleFormat(core.Plan{Dir: core.Push, Shrinking: true})
	if v.Format() != Bitset {
		t.Fatal("push plan above switch-point must not sparsify")
	}

	// Below the switch-point but *growing*: the trend gate holds the
	// bitset (this is the anti-flap hysteresis).
	v.Clear()
	_ = v.SetElement(0, true)
	_ = v.SetElement(1, true)
	v.ToBitset()
	v.settleFormat(core.Plan{Dir: core.Push, Growing: true})
	if v.Format() != Bitset {
		t.Fatal("growing frontier must not sparsify")
	}

	// Below the switch-point and shrinking: back to the sparse list.
	v.settleFormat(core.Plan{Dir: core.Push, Shrinking: true})
	if v.Format() != Sparse {
		t.Fatal("shrinking below switch-point should sparsify")
	}
}

func TestFormatString(t *testing.T) {
	if Sparse.String() != "sparse" || Dense.String() != "dense" || Bitset.String() != "bitset" {
		t.Fatal("Format.String mismatch")
	}
}
