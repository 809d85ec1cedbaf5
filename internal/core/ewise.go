package core

import "sort"

// This file implements the format-aware element-wise kernels the unified
// operation pipeline dispatches to: eWiseMult (pattern intersection),
// eWiseAdd (pattern union), apply (value map over one pattern), select
// (pattern filter) and extract (index gather). Like the matvec kernels they
// consume operands through VecView, honour a MaskView on the *output*
// positions, and come in two output layouts so the pipeline can preserve
// operand formats:
//
//   - sparse-out kernels append (index, value) pairs into caller-provided
//     slices (reusable vector storage — zero allocations past the
//     high-water mark) and return the grown slices;
//   - bitmap-out kernels write into caller-provided value/presence arrays
//     (cleared by the caller) and return the number of stored outputs, so
//     dense∘dense eWise loops run over the value arrays directly and a
//     bitmap operand never round-trips through a sparse list.
//
// The mult kernels require at least one O(1)-probe side or one sparse side
// as documented per function; the pipeline picks the kernel from the
// operand kinds so no combination ever materializes a converted copy.

// At returns the stored value at position i, probing in O(1) for bitmap,
// bitset and dense views and by binary search for sparse views. Like has,
// it takes a pointer: a value receiver copied the 120-byte view per probe.
func (v *VecView[T]) At(i int) (T, bool) {
	switch v.Kind {
	case KindDense:
		return v.Dval[i], true
	case KindBitmap:
		if v.Present[i] {
			return v.Dval[i], true
		}
		var zero T
		return zero, false
	case KindBitset:
		if BitsetGet(v.Words, i) {
			return v.Dval[i], true
		}
		var zero T
		return zero, false
	default:
		pos := sort.Search(len(v.Ind), func(k int) bool { return v.Ind[k] >= uint32(i) })
		if pos < len(v.Ind) && v.Ind[pos] == uint32(i) {
			return v.Val[pos], true
		}
		var zero T
		return zero, false
	}
}

// allows reports whether the (possibly absent) mask passes output index i.
func allows(useMask bool, mv MaskView, i int) bool {
	return !useMask || mv.Allows(i)
}

// has reports presence at i for the O(1)-probe view kinds (bitmap, bitset,
// dense — never call it on a sparse view): a bit probe for bitset views, a
// byte probe for bitmap, unconditionally true for dense.
func (v *VecView[T]) has(i int) bool {
	if v.Words != nil {
		return BitsetGet(v.Words, i)
	}
	return v.Present == nil || v.Present[i]
}

// EWiseMultSparse computes the masked intersection u .⊗ v into a sparse
// (ind, val) pair list. At least one operand must be sparse: two sparse
// operands run a two-pointer merge, a mixed pair iterates the sparse side
// and probes the other in O(1). Appends into the passed slices and returns
// them.
func EWiseMultSparse[T comparable](ind []uint32, val []T, u, v VecView[T], useMask bool, mv MaskView, op func(a, b T) T) ([]uint32, []T) {
	if u.Kind == KindSparse && v.Kind == KindSparse {
		i, j := 0, 0
		for i < len(u.Ind) && j < len(v.Ind) {
			switch {
			case u.Ind[i] < v.Ind[j]:
				i++
			case u.Ind[i] > v.Ind[j]:
				j++
			default:
				if allows(useMask, mv, int(u.Ind[i])) {
					ind = append(ind, u.Ind[i])
					val = append(val, op(u.Val[i], v.Val[j]))
				}
				i++
				j++
			}
		}
		return ind, val
	}
	// One sparse side drives; the other must be O(1)-probe.
	if u.Kind == KindSparse {
		for k, idx := range u.Ind {
			if !allows(useMask, mv, int(idx)) {
				continue
			}
			if x, ok := v.At(int(idx)); ok {
				ind = append(ind, idx)
				val = append(val, op(u.Val[k], x))
			}
		}
		return ind, val
	}
	for k, idx := range v.Ind {
		if !allows(useMask, mv, int(idx)) {
			continue
		}
		if x, ok := u.At(int(idx)); ok {
			ind = append(ind, idx)
			val = append(val, op(x, v.Val[k]))
		}
	}
	return ind, val
}

// EWiseMultBitmap computes the masked intersection u .⊗ v into bitmap
// buffers (wPresent all-false on entry). Both operands must be O(1)-probe
// (bitmap or dense); dense∘dense runs entirely over the value arrays with
// no presence probes at all. Returns the output count.
func EWiseMultBitmap[T comparable](wVal []T, wPresent []bool, u, v VecView[T], useMask bool, mv MaskView, op func(a, b T) T) int {
	n := len(wVal)
	c := 0
	if u.Kind == KindDense && v.Kind == KindDense && !useMask {
		uv, vv := u.Dval, v.Dval
		for i := 0; i < n; i++ {
			wVal[i] = op(uv[i], vv[i])
			wPresent[i] = true
		}
		return n
	}
	for i := 0; i < n; i++ {
		if !allows(useMask, mv, i) {
			continue
		}
		if !u.has(i) || !v.has(i) {
			continue
		}
		wVal[i] = op(u.Dval[i], v.Dval[i])
		wPresent[i] = true
		c++
	}
	return c
}

// EWiseAddSparse computes the masked union u ⊕ v into a sparse (ind, val)
// list. Both operands must be sparse (a union with a bitmap or dense
// operand is at least that dense, so the pipeline routes it to the bitmap
// kernel instead).
func EWiseAddSparse[T comparable](ind []uint32, val []T, u, v VecView[T], useMask bool, mv MaskView, op func(a, b T) T) ([]uint32, []T) {
	i, j := 0, 0
	for i < len(u.Ind) || j < len(v.Ind) {
		switch {
		case j >= len(v.Ind) || (i < len(u.Ind) && u.Ind[i] < v.Ind[j]):
			if allows(useMask, mv, int(u.Ind[i])) {
				ind = append(ind, u.Ind[i])
				val = append(val, u.Val[i])
			}
			i++
		case i >= len(u.Ind) || v.Ind[j] < u.Ind[i]:
			if allows(useMask, mv, int(v.Ind[j])) {
				ind = append(ind, v.Ind[j])
				val = append(val, v.Val[j])
			}
			j++
		default:
			if allows(useMask, mv, int(u.Ind[i])) {
				ind = append(ind, u.Ind[i])
				val = append(val, op(u.Val[i], v.Val[j]))
			}
			i++
			j++
		}
	}
	return ind, val
}

// EWiseAddBitmap computes the masked union u ⊕ v into bitmap buffers
// (wPresent all-false on entry), accepting any operand kind combination: a
// non-sparse side is copied in a single masked scan, a sparse side is
// scattered on top in O(nnz). Returns the output count.
func EWiseAddBitmap[T comparable](wVal []T, wPresent []bool, u, v VecView[T], useMask bool, mv MaskView, op func(a, b T) T) int {
	n := len(wVal)
	c := 0
	if u.Kind != KindSparse && v.Kind != KindSparse {
		if u.Kind == KindDense && v.Kind == KindDense && !useMask {
			uv, vv := u.Dval, v.Dval
			for i := 0; i < n; i++ {
				wVal[i] = op(uv[i], vv[i])
				wPresent[i] = true
			}
			return n
		}
		for i := 0; i < n; i++ {
			if !allows(useMask, mv, i) {
				continue
			}
			uHas := u.has(i)
			vHas := v.has(i)
			switch {
			case uHas && vHas:
				wVal[i] = op(u.Dval[i], v.Dval[i])
			case uHas:
				wVal[i] = u.Dval[i]
			case vHas:
				wVal[i] = v.Dval[i]
			default:
				continue
			}
			wPresent[i] = true
			c++
		}
		return c
	}
	// One side is sparse. Copy the denser side first, then fold the sparse
	// side in, keeping op's operand order (u first).
	base, scat := u, v
	scatIsV := true
	if u.Kind == KindSparse {
		base, scat = v, u
		scatIsV = false
	}
	for i := 0; i < n; i++ {
		if !allows(useMask, mv, i) {
			continue
		}
		if !base.has(i) {
			continue
		}
		wVal[i] = base.Dval[i]
		wPresent[i] = true
		c++
	}
	for k, idx := range scat.Ind {
		i := int(idx)
		if !allows(useMask, mv, i) {
			continue
		}
		x := scat.Val[k]
		if wPresent[i] {
			if scatIsV {
				wVal[i] = op(wVal[i], x)
			} else {
				wVal[i] = op(x, wVal[i])
			}
		} else {
			wVal[i] = x
			wPresent[i] = true
			c++
		}
	}
	return c
}

// ApplySparse computes w = f(i, u(i)) over a sparse u's pattern into a
// sparse (ind, val) list, honouring the output mask.
func ApplySparse[T comparable](ind []uint32, val []T, u VecView[T], useMask bool, mv MaskView, f func(i int, x T) T) ([]uint32, []T) {
	for k, idx := range u.Ind {
		if !allows(useMask, mv, int(idx)) {
			continue
		}
		ind = append(ind, idx)
		val = append(val, f(int(idx), u.Val[k]))
	}
	return ind, val
}

// ApplyBitmap computes w = f(i, u(i)) over a bitmap or dense u into bitmap
// buffers (wPresent all-false on entry); a dense input runs probe-free.
// Returns the output count.
func ApplyBitmap[T comparable](wVal []T, wPresent []bool, u VecView[T], useMask bool, mv MaskView, f func(i int, x T) T) int {
	n := len(wVal)
	if u.Kind == KindDense && !useMask {
		uv := u.Dval
		for i := 0; i < n; i++ {
			wVal[i] = f(i, uv[i])
			wPresent[i] = true
		}
		return n
	}
	c := 0
	for i := 0; i < n; i++ {
		if !allows(useMask, mv, i) {
			continue
		}
		if !u.has(i) {
			continue
		}
		wVal[i] = f(i, u.Dval[i])
		wPresent[i] = true
		c++
	}
	return c
}

// SelectSparse keeps the elements of a sparse u passing pred (and the
// output mask) in a sparse (ind, val) list.
func SelectSparse[T comparable](ind []uint32, val []T, u VecView[T], useMask bool, mv MaskView, pred func(i int, x T) bool) ([]uint32, []T) {
	for k, idx := range u.Ind {
		if !allows(useMask, mv, int(idx)) {
			continue
		}
		if pred(int(idx), u.Val[k]) {
			ind = append(ind, idx)
			val = append(val, u.Val[k])
		}
	}
	return ind, val
}

// SelectBitmap keeps the elements of a bitmap or dense u passing pred (and
// the output mask) in bitmap buffers (wPresent all-false on entry). Returns
// the output count.
func SelectBitmap[T comparable](wVal []T, wPresent []bool, u VecView[T], useMask bool, mv MaskView, pred func(i int, x T) bool) int {
	n := len(wVal)
	c := 0
	for i := 0; i < n; i++ {
		if !allows(useMask, mv, i) {
			continue
		}
		if !u.has(i) {
			continue
		}
		if pred(i, u.Dval[i]) {
			wVal[i] = u.Dval[i]
			wPresent[i] = true
			c++
		}
	}
	return c
}

// ExtractSparse gathers w(k) = u(indices[k]) where present into a sparse
// (ind, val) list; the mask applies to the *output* position k.
func ExtractSparse[T comparable](ind []uint32, val []T, u VecView[T], indices []uint32, useMask bool, mv MaskView) ([]uint32, []T) {
	for k, idx := range indices {
		if !allows(useMask, mv, k) {
			continue
		}
		if x, ok := u.At(int(idx)); ok {
			ind = append(ind, uint32(k))
			val = append(val, x)
		}
	}
	return ind, val
}

// ExtractBitmap gathers w(k) = u(indices[k]) from an O(1)-probe u into
// bitmap buffers (wPresent all-false on entry). Returns the output count.
func ExtractBitmap[T comparable](wVal []T, wPresent []bool, u VecView[T], indices []uint32, useMask bool, mv MaskView) int {
	c := 0
	for k, idx := range indices {
		if !allows(useMask, mv, k) {
			continue
		}
		if !u.has(int(idx)) {
			continue
		}
		wVal[k] = u.Dval[idx]
		wPresent[k] = true
		c++
	}
	return c
}
