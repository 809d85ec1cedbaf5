package core

import (
	"sync"

	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// spaScratch is one worker's row-sized accumulator for the masked SpGEMM:
// acc holds partial sums, hit marks touched columns, allowed marks the
// current row's mask pattern.
type spaScratch[T any] struct {
	acc     []T
	allowed []bool
	hit     []bool
}

// MxMMasked computes the masked sparse matrix-matrix product C⟨M⟩ = A·B
// over the semiring sr, with the output pattern restricted a priori to the
// mask pattern (maskPtr/maskInd in CSR layout, one sorted run per row).
//
// This is the paper's Section 5.6 generalization of Optimization 2 beyond
// matvec: triangle counting and enumeration know the output pattern in
// advance (it is the adjacency pattern itself), so a masked Gustavson
// SpGEMM only ever accumulates into allowed positions and the asymptotic
// saving O(M/nnz(m)) carries over. Each worker keeps a row-sized sparse
// accumulator; rows are processed independently. The multiply form is
// resolved once: the second form (⊗ = B's value) never reads A's values,
// the One form reads neither operand's.
func MxMMasked[T comparable](a, b *sparse.CSR[T], maskPtr []int, maskInd []uint32, sr SR[T], opts Opts) *sparse.CSR[T] {
	if a.Cols != b.Rows {
		panic("core: MxMMasked dimension mismatch")
	}
	sr = sr.resolve(opts)
	c := &sparse.CSR[T]{Rows: a.Rows, Cols: b.Cols, Ptr: make([]int, a.Rows+1)}
	rowInd := make([][]uint32, a.Rows)
	rowVal := make([][]T, a.Rows)

	// Per-worker accumulators come from the workspace when one is pinned,
	// so repeated masked products (e.g. triangle counting sweeps) reuse the
	// same row-sized scratch instead of reallocating it per call.
	var scratch *sync.Pool
	if ar := arenaFor[T](opts.Ws); ar != nil {
		scratch = ar.spaScratchPool(b.Cols)
	} else {
		scratch = &sync.Pool{New: func() any {
			return &spaScratch[T]{
				acc:     make([]T, b.Cols),
				allowed: make([]bool, b.Cols),
				hit:     make([]bool, b.Cols),
			}
		}}
	}

	process := func(lo, hi int) {
		s := scratch.Get().(*spaScratch[T])
		defer scratch.Put(s)
		accumulate := func(j uint32, product T) {
			if s.hit[j] {
				s.acc[j] = sr.Add(s.acc[j], product)
			} else {
				s.hit[j] = true
				s.acc[j] = product
			}
		}
		for i := lo; i < hi; i++ {
			mLo, mHi := maskPtr[i], maskPtr[i+1]
			if mLo == mHi {
				continue
			}
			allowedCols := maskInd[mLo:mHi]
			for _, j := range allowedCols {
				s.allowed[j] = true
			}
			aInd, aVal := a.RowSpan(i)
			for t, k := range aInd {
				bInd, bVal := b.RowSpan(int(k))
				switch sr.Form {
				case MulOne:
					for _, j := range bInd {
						if s.allowed[j] {
							accumulate(j, sr.One)
						}
					}
				case MulSecond:
					for u, j := range bInd {
						if s.allowed[j] {
							accumulate(j, bVal[u])
						}
					}
				default:
					for u, j := range bInd {
						if s.allowed[j] {
							accumulate(j, sr.Mul(aVal[t], bVal[u]))
						}
					}
				}
			}
			var ind []uint32
			var val []T
			for _, j := range allowedCols {
				if s.hit[j] {
					ind = append(ind, j)
					val = append(val, s.acc[j])
					s.hit[j] = false
				}
				s.allowed[j] = false
			}
			rowInd[i] = ind
			rowVal[i] = val
		}
	}
	if opts.Sequential {
		process(0, a.Rows)
	} else {
		par.For(a.Rows, 64, process)
	}

	nnz := 0
	for i := 0; i < a.Rows; i++ {
		c.Ptr[i] = nnz
		nnz += len(rowInd[i])
	}
	c.Ptr[a.Rows] = nnz
	c.Ind = make([]uint32, 0, nnz)
	c.Val = make([]T, 0, nnz)
	for i := 0; i < a.Rows; i++ {
		c.Ind = append(c.Ind, rowInd[i]...)
		c.Val = append(c.Val, rowVal[i]...)
	}
	return c
}
