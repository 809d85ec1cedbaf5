package graphblas

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Algebraic identities the library must satisfy — property tests over
// random matrices and vectors.

// TestMxVIdentityVector: multiplying the all-ones vector by a 0/1 matrix
// over plus-times yields each row's degree.
func TestMxVIdentityVector(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		var r, c []uint32
		var v []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					r = append(r, uint32(i))
					c = append(c, uint32(j))
					v = append(v, 1)
				}
			}
		}
		a, err := NewMatrixFromCOO(n, n, r, c, v, nil)
		if err != nil {
			return false
		}
		ones := NewVector[float64](n)
		for i := 0; i < n; i++ {
			_ = ones.SetElement(i, 1)
		}
		w := NewVector[float64](n)
		if _, err := Into(w).MxV(PlusTimesFloat64(), a, ones); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			ind, _ := a.RowView(i)
			deg := float64(len(ind))
			x, err := w.ExtractElement(i)
			if len(ind) == 0 {
				if err == nil {
					return false
				}
				continue
			}
			if err != nil || x != deg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMxVLinearity: A(x ⊕ y) == Ax ⊕ Ay for plus-times when x and y have
// disjoint support, so x ⊕ y is their concatenation. Ax and Ay are two
// matvecs whose products the test adds.
func TestMxVLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randMatrix(rng, n, n, 0.25)
		x := NewVector[float64](n)
		y := NewVector[float64](n)
		sum := NewVector[float64](n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				xi := rng.Float64()
				_ = x.SetElement(i, xi)
				_ = sum.SetElement(i, xi)
			case 1:
				yi := rng.Float64()
				_ = y.SetElement(i, yi)
				_ = sum.SetElement(i, yi)
			}
		}
		s := PlusTimesFloat64()
		lhs := NewVector[float64](n)
		if _, err := Into(lhs).MxV(s, a, sum); err != nil {
			return false
		}
		rhs := map[int]float64{}
		for _, v := range []*Vector[float64]{x, y} {
			av := NewVector[float64](n)
			if _, err := Into(av).MxV(s, a, v); err != nil {
				return false
			}
			av.Iterate(func(i int, p float64) bool { rhs[i] += p; return true })
		}
		if lhs.NVals() != len(rhs) {
			return false
		}
		ok := true
		lhs.Iterate(func(i int, v float64) bool {
			u, found := rhs[i]
			if !found || !approx(u, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestTransposeInvolutionAndMxVDuality: (Aᵀ)ᵀ = A, and MxV(Aᵀ, x) equals
// MxV with the Transpose descriptor.
func TestTransposeInvolutionAndMxVDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		nr, nc := 1+rng.Intn(20), 1+rng.Intn(20)
		a := randMatrix(rng, nr, nc, 0.3)
		at := Transpose(a)
		att := Transpose(at)
		if att.NRows() != a.NRows() || att.NVals() != a.NVals() {
			t.Fatal("double transpose changed shape")
		}
		x := randVec(rng, nr, 0.5)
		s := PlusTimesFloat64()
		w1 := NewVector[float64](nc)
		if _, err := Into(w1).MxV(s, at, x.Dup()); err != nil {
			t.Fatal(err)
		}
		w2 := NewVector[float64](nc)
		if _, err := Into(w2).With(&Descriptor{Transpose: true}).MxV(s, a, x.Dup()); err != nil {
			t.Fatal(err)
		}
		if w1.NVals() != w2.NVals() {
			t.Fatalf("trial %d: transpose duality nnz %d vs %d", trial, w1.NVals(), w2.NVals())
		}
		w1.Iterate(func(i int, v float64) bool {
			u, err := w2.ExtractElement(i)
			if err != nil || !approx(u, v) {
				t.Fatalf("trial %d: duality mismatch at %d", trial, i)
			}
			return true
		})
	}
	// Symmetric matrices transpose to themselves.
	sym, err := NewMatrixFromCOO(2, 2, []uint32{0, 1}, []uint32{1, 0}, []float64{3, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Transpose(sym) != sym {
		t.Fatal("symmetric transpose should be identity")
	}
}

// TestMaskDeMorgan: the structural complement partitions the output — the
// masked result and the complement-masked result are disjoint and their
// union is the unmasked result.
func TestMaskDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a := randMatrix(rng, n, n, 0.25)
		u := randVec(rng, n, 0.5)
		mask := NewVector[bool](n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = mask.SetElement(i, true)
			}
		}
		s := PlusTimesFloat64()
		full := NewVector[float64](n)
		pos := NewVector[float64](n)
		neg := NewVector[float64](n)
		if _, err := Into(full).MxV(s, a, u.Dup()); err != nil {
			return false
		}
		if _, err := Into(pos).Mask(mask).MxV(s, a, u.Dup()); err != nil {
			return false
		}
		if _, err := Into(neg).Mask(mask).With(&Descriptor{StructuralComplement: true}).MxV(s, a, u.Dup()); err != nil {
			return false
		}
		if pos.NVals()+neg.NVals() != full.NVals() {
			return false
		}
		ok := true
		full.Iterate(func(i int, v float64) bool {
			p, perr := pos.ExtractElement(i)
			q, qerr := neg.ExtractElement(i)
			if (perr == nil) == (qerr == nil) { // exactly one side must hold i
				ok = false
				return false
			}
			got := p
			if perr != nil {
				got = q
			}
			if !approx(got, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
