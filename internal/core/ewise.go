package core

import "math/bits"

// This file implements the format-aware element-wise kernels the unified
// operation pipeline dispatches to: apply (value map over one pattern) and
// select (pattern filter). Like the matvec kernels they consume operands
// through VecView, honour a MaskView on the *output* positions, and come in
// two output layouts so the pipeline can preserve operand formats:
//
//   - sparse-out kernels append (index, value) pairs into caller-provided
//     slices (reusable vector storage — zero allocations past the
//     high-water mark) and return the grown slices;
//   - bitset-out kernels take a bitset or dense operand, write packed
//     presence words (cleared tail invariant maintained) and compute the
//     output *pattern* 64 positions at a time — the operand's presence word
//     ANDed with the mask's, the structural complement a word-NOT. Values
//     are then filled by trailing-zero enumeration of the result word, so
//     absent runs cost one load per 64 positions.

// allows reports whether the (possibly absent) mask passes output index i.
func allows(useMask bool, mv MaskView, i int) bool {
	return !useMask || mv.Allows(i)
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

// presenceWord returns view v's 64-position presence pattern at word index
// wi. tail must be BitsetTailMask(v.N) for the last word and ^0 otherwise;
// bitset views rely on their tail-zero invariant, dense views are all-tail.
func presenceWord[T comparable](v VecView[T], wi int, tail uint64) uint64 {
	if v.Words != nil {
		return v.Words[wi]
	}
	return tail
}

// maskAllowWord returns the 64-position allow pattern of the effective
// mask at word index wi: tail (everything) with no mask, else the mask's
// word with the complement applied.
func maskAllowWord(useMask bool, mv MaskView, wi int, tail uint64) uint64 {
	if !useMask {
		return tail
	}
	return mv.EffectiveWord(wi, tail)
}

// ApplyBitsetOut computes w = f(i, u(i)) over a bitset or dense u into bitset
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
		w := presenceWord(u, wi, tail) & maskAllowWord(useMask, mv, wi, tail)
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

// SelectBitsetOut keeps the elements of a bitset or dense u passing pred (and
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
		w := presenceWord(u, wi, tail) & maskAllowWord(useMask, mv, wi, tail)
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
