package core

import (
	"pushpull/internal/merge"
	"pushpull/internal/sparse"
)

// This file holds instrumented, sequential twins of the four Table 1
// kernels. They count accesses in the paper's RAM model instead of chasing
// throughput, and the Table 1 experiment fits their counts against the
// predicted complexities:
//
//	row unmasked    O(d·M)                   — flat in nnz(f), nnz(m)
//	row masked      O(d·nnz(m))              — linear in nnz(m)
//	column unmasked O(d·nnz(f)·log nnz(f))   — ~linear in nnz(f)
//	column masked   same as unmasked + filter
//
// Counting conventions: each load of a matrix index or value entry is one
// MatrixAccess (only the general multiply form loads values); each
// input-vector probe is one VectorAccess; each mask probe is one
// MaskAccess; each heap push/pop during the multiway merge is one MergeOp
// (this is where the log factor lives). These twins keep the form switch
// inside the loop: they count, they do not race.

// RowMxvCounted is RowMxv with access counting.
func RowMxvCounted[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], uVal []T, uPresent []bool, sr SR[T], opts Opts, c *Counter) {
	sr = sr.resolve(opts)
	for i := 0; i < g.Rows; i++ {
		rowAccumulateCounted(w, wPresent, g, i, uVal, uPresent, sr, c)
	}
}

// RowMaskedMxvCounted is RowMaskedMxv with access counting. Without a
// mask.List, every bitmap probe is counted — exposing the O(M) term the
// paper's amortized zero-list avoids; with a list, only allowed rows cost.
func RowMaskedMxvCounted[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], uVal []T, uPresent []bool, mask MaskView, sr SR[T], opts Opts, c *Counter) {
	sr = sr.resolve(opts)
	if mask.List != nil {
		for _, i := range mask.List {
			wPresent[i] = false
			rowAccumulateCounted(w, wPresent, g, int(i), uVal, uPresent, sr, c)
		}
		return
	}
	for i := 0; i < g.Rows; i++ {
		wPresent[i] = false
		c.MaskAccesses++
		if !mask.Allows(i) {
			continue
		}
		rowAccumulateCounted(w, wPresent, g, i, uVal, uPresent, sr, c)
	}
}

func rowAccumulateCounted[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], i int, uVal []T, uPresent []bool, sr SR[T], c *Counter) {
	lo, hi := g.Ptr[i], g.Ptr[i+1]
	acc := sr.Id
	any := false
	for k := lo; k < hi; k++ {
		c.MatrixAccesses++ // load of G.Ind[k] (and G.Val[k] in the general form)
		if sr.Form == MulGeneral {
			c.MatrixAccesses++
		}
		j := g.Ind[k]
		c.VectorAccesses++
		if !uPresent[j] {
			continue
		}
		switch sr.Form {
		case MulOne:
			acc = sr.Add(acc, sr.One)
		case MulSecond:
			acc = sr.Add(acc, uVal[j])
		default:
			acc = sr.Add(acc, sr.Mul(g.Val[k], uVal[j]))
		}
		any = true
		if sr.Terminal != nil && acc == *sr.Terminal {
			break
		}
	}
	if any {
		w[i] = acc
	}
	wPresent[i] = any
}

// ColMxvCounted is ColMxv with access counting, always using the heap
// merge so MergeOps reflects the n·log k term of the Section 3.1 analysis.
func ColMxvCounted[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, sr SR[T], opts Opts, c *Counter) ([]uint32, []T) {
	return colMxvCounted(cscG, uInd, uVal, MaskView{}, false, sr, opts, c)
}

// ColMaskedMxvCounted is ColMaskedMxv with access counting. The post-merge
// mask filter adds one MaskAccess per merged output — visibly *not* a work
// reduction, matching Table 1 row 4.
func ColMaskedMxvCounted[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, mask MaskView, sr SR[T], opts Opts, c *Counter) ([]uint32, []T) {
	return colMxvCounted(cscG, uInd, uVal, mask, true, sr, opts, c)
}

func colMxvCounted[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, mask MaskView, masked bool, sr SR[T], opts Opts, c *Counter) ([]uint32, []T) {
	k := len(uInd)
	if k == 0 {
		return nil, nil
	}
	sr = sr.resolve(opts)
	offsets := make([]int, k+1)
	for i, col := range uInd {
		offsets[i+1] = offsets[i] + cscG.RowLen(int(col))
	}
	total := offsets[k]
	keys := make([]uint32, total)
	vals := make([]T, total)
	for i, col := range uInd {
		ind, val := cscG.RowSpan(int(col))
		off := offsets[i]
		c.VectorAccesses++ // load of u(i)
		for j := range ind {
			c.MatrixAccesses++ // load of the column entry's index
			keys[off+j] = ind[j]
			switch sr.Form {
			case MulOne:
				vals[off+j] = sr.One
			case MulSecond:
				vals[off+j] = uVal[i]
			default:
				c.MatrixAccesses++ // load of the column entry's value
				vals[off+j] = sr.Mul(val[j], uVal[i])
			}
		}
	}
	// Count heap traffic: each element is pushed and popped once against a
	// heap of ≤ k runs — 2·n·⌈log₂(k+1)⌉ merge operations.
	logK := int64(1)
	for 1<<logK < k+1 {
		logK++
	}
	c.MergeOps += 2 * int64(total) * logK
	wInd, wVal := merge.MultiwayMergePairs(keys, vals, offsets, sr.Add)
	if !masked {
		return wInd, wVal
	}
	out := 0
	for i, ind := range wInd {
		c.MaskAccesses++
		if mask.Allows(int(ind)) {
			wInd[out] = ind
			wVal[out] = wVal[i]
			out++
		}
	}
	return wInd[:out], wVal[:out]
}
