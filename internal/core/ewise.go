package core

import "math/bits"

// This file implements the format-aware element-wise kernels the unified
// operation pipeline dispatches to: apply (value map over one pattern) and
// select (pattern filter). Like the matvec kernels they consume operands
// through VecView, honour a MaskView on the *output* positions, and come in
// three output layouts so the pipeline can preserve operand formats:
//
//   - sparse-out kernels append (index, value) pairs into caller-provided
//     slices (reusable vector storage — zero allocations past the
//     high-water mark) and return the grown slices;
//   - bitmap-out kernels write into caller-provided value/presence arrays
//     (cleared by the caller) and return the number of stored outputs, so
//     a bitmap or dense operand never round-trips through a sparse list;
//   - bitset-out kernels write packed presence words (cleared tail
//     invariant maintained) and compute the output *pattern* 64 positions
//     at a time — the operand's presence word ANDed with the mask's, the
//     structural complement a word-NOT. Values are then filled by
//     trailing-zero enumeration of the result word, so absent runs cost one
//     load per 64 positions.

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

// presenceWord returns view v's 64-position presence pattern at word index
// wi. tail must be BitsetTailMask(v.N) for the last word and ^0 otherwise;
// bitset views rely on their tail-zero invariant, dense views are all-tail,
// bitmap views pack 64 presence bytes.
func presenceWord[T comparable](v VecView[T], wi int, tail uint64) uint64 {
	if v.Words != nil {
		return v.Words[wi]
	}
	if v.Present == nil {
		return tail
	}
	return packBoolWord(v.Present, wi<<6, v.N)
}

// maskAllowWord returns the 64-position allow pattern of the effective
// mask at word index wi: tail (everything) with no mask, the complemented
// word for word-packed masks, a 64-byte pack for bitmap-backed ones.
func maskAllowWord(useMask bool, mv MaskView, wi, n int, tail uint64) uint64 {
	if !useMask {
		return tail
	}
	if mv.Words != nil {
		return mv.EffectiveWord(wi, tail)
	}
	w := packBoolWord(mv.Bits, wi<<6, n)
	if mv.Scmp {
		w = ^w
	}
	return w & tail
}

// ApplyBitsetOut computes w = f(i, u(i)) over an O(1)-probe u into bitset
// buffers: the output pattern is u's presence words ANDed with the mask, f
// runs per surviving bit. Returns the output count.
func ApplyBitsetOut[T comparable](wVal []T, wWords []uint64, u VecView[T], useMask bool, mv MaskView, f func(i int, x T) T) int {
	n := len(wVal)
	nw := len(wWords)
	c := 0
	for wi := 0; wi < nw; wi++ {
		tail := ^uint64(0)
		if wi == nw-1 {
			tail = BitsetTailMask(n)
		}
		w := presenceWord(u, wi, tail) & maskAllowWord(useMask, mv, wi, n, tail)
		wWords[wi] = w
		c += bits.OnesCount64(w)
		base := wi << 6
		for t := w; t != 0; t &= t - 1 {
			i := base + bits.TrailingZeros64(t)
			wVal[i] = f(i, u.Dval[i])
		}
	}
	return c
}

// SelectBitsetOut keeps the elements of an O(1)-probe u passing pred (and
// the mask) in bitset buffers: candidate words come from u's presence and
// the mask, failing bits are cleared. Returns the output count.
func SelectBitsetOut[T comparable](wVal []T, wWords []uint64, u VecView[T], useMask bool, mv MaskView, pred func(i int, x T) bool) int {
	n := len(wVal)
	nw := len(wWords)
	c := 0
	for wi := 0; wi < nw; wi++ {
		tail := ^uint64(0)
		if wi == nw-1 {
			tail = BitsetTailMask(n)
		}
		w := presenceWord(u, wi, tail) & maskAllowWord(useMask, mv, wi, n, tail)
		base := wi << 6
		for t := w; t != 0; t &= t - 1 {
			off := bits.TrailingZeros64(t)
			i := base + off
			if pred(i, u.Dval[i]) {
				wVal[i] = u.Dval[i]
			} else {
				w &^= 1 << uint(off)
			}
		}
		wWords[wi] = w
		c += bits.OnesCount64(w)
	}
	return c
}
