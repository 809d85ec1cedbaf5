package graphblas

import (
	"math/rand"
	"testing"

	"pushpull/internal/par"
)

// Parallel kernels must be bitwise-deterministic for order-insensitive
// semirings and independent of the worker count: results with 1 worker
// and with the full pool have to match exactly.

func TestMxVDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 300
	a := randMatrix(rng, n, n, 0.05)
	u := randVec(rng, n, 0.3)
	mask := NewVector[bool](n)
	for i := 0; i < n; i += 3 {
		_ = mask.SetElement(i, true)
	}
	mask.ToBitset()
	s := PlusTimesFloat64()

	type result struct {
		ind []uint32
		val []float64
	}
	capture := func(v *Vector[float64]) (r result) {
		v.Iterate(func(i int, x float64) bool {
			r.ind, r.val = append(r.ind, uint32(i)), append(r.val, x)
			return true
		})
		return r
	}
	run := func(workers int, dir Direction, masked bool) result {
		prev := par.SetMaxWorkers(workers)
		defer par.SetMaxWorkers(prev)
		w := NewVector[float64](n)
		desc := &Descriptor{Direction: dir, StructuralComplement: true}
		var err error
		if masked {
			_, err = Into(w).Mask(mask).With(desc).MxV(s, a, u.Dup())
		} else {
			_, err = Into(w).With(desc).MxV(s, a, u.Dup())
		}
		if err != nil {
			t.Fatal(err)
		}
		return capture(w)
	}
	for _, dir := range []Direction{ForcePush, ForcePull} {
		for _, masked := range []bool{false, true} {
			one := run(1, dir, masked)
			many := run(8, dir, masked)
			if len(one.ind) != len(many.ind) {
				t.Fatalf("dir=%v masked=%v: nnz %d vs %d", dir, masked, len(one.ind), len(many.ind))
			}
			for i := range one.ind {
				if one.ind[i] != many.ind[i] || one.val[i] != many.val[i] {
					t.Fatalf("dir=%v masked=%v: entry %d differs", dir, masked, i)
				}
			}
		}
	}
}
