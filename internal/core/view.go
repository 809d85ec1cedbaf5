package core

// This file defines the format-agnostic vector view the kernels consume.
// The public graphblas layer stores vectors in one of three formats —
// sparse list, bitset (values plus word-packed presence), dense (every
// position stored) — and lowers whichever one a vector currently holds
// into a VecView without copying. Presence is carried only as words: a
// bitset view probes single bits of packed words, and a dense view carries
// no presence at all, so the pull inner loop skips the probe. Kernels
// dispatch on the view's kind: the pull side gets an O(1)-probe layout
// (packing a sparse view into workspace words first), the push side gets
// an index list (compacting one from the words by trailing-zero
// enumeration if needed).

// VecKind names the storage layout a VecView describes.
type VecKind uint8

const (
	// KindSparse is a sorted unique (index, value) pair list.
	KindSparse VecKind = iota
	// KindDense is a value array with every position stored: the presence
	// probe disappears from kernel inner loops.
	KindDense
	// KindBitset is a value array plus a word-packed presence bitset
	// ([]uint64, 64 positions per word): O(1) bit probes, popcount
	// density, word-wise pattern algebra.
	KindBitset
)

// String returns "sparse", "dense" or "bitset".
func (k VecKind) String() string {
	switch k {
	case KindSparse:
		return "sparse"
	case KindBitset:
		return "bitset"
	default:
		return "dense"
	}
}

// VecView is a zero-copy, read-only window onto a vector's storage in
// whatever format it currently holds. Exactly the fields implied by Kind
// are valid: Ind/Val for sparse, Dval/Words for bitset, Dval alone for
// dense (Words is nil and every position is stored).
type VecView[T comparable] struct {
	Kind VecKind
	// N is the vector length.
	N int
	// NVals is the stored-element count (len(Ind) for sparse, N for dense).
	NVals int

	// Sparse: parallel slices, Ind sorted ascending and unique.
	Ind []uint32
	Val []T

	// Bitset/dense: value array of length N. Words is the bitset format's
	// packed presence bits (BitsetWords(N) long, tail bits zero); nil for
	// dense.
	Dval  []T
	Words []uint64
}

// SparseVec builds a sparse view over sorted unique (ind, val) pairs.
func SparseVec[T comparable](n int, ind []uint32, val []T) VecView[T] {
	return VecView[T]{Kind: KindSparse, N: n, NVals: len(ind), Ind: ind, Val: val}
}

// DenseVec builds a dense view: every position of dval is a stored element.
func DenseVec[T comparable](dval []T) VecView[T] {
	return VecView[T]{Kind: KindDense, N: len(dval), NVals: len(dval), Dval: dval}
}

// BitsetVec builds a bitset view over a value array and a word-packed
// presence bitset (BitsetWords(len(dval)) words, tail bits zero). nvals is
// the number of set bits; pass BitsetCount(words) if the caller does not
// track it.
func BitsetVec[T comparable](dval []T, words []uint64, nvals int) VecView[T] {
	return VecView[T]{Kind: KindBitset, N: len(dval), NVals: nvals, Dval: dval, Words: words}
}

// pullOperands lowers the view into the (values, words) pair the row
// kernels probe, packing a sparse view into arena scratch: the values
// scatter into place and the indices into words cleared first (n/64 stores,
// next to a pull's O(rows) scan). words is nil when every position is
// stored.
func pullOperands[T comparable](a *arena[T], u VecView[T]) (val []T, words []uint64) {
	if u.Kind != KindSparse {
		return u.Dval, u.Words
	}
	a.pullVal = grow(a.pullVal, u.N)
	a.pullWords = grow(a.pullWords, BitsetWords(u.N))
	BitsetZero(a.pullWords)
	for k, idx := range u.Ind {
		a.pullVal[idx] = u.Val[k]
	}
	BitsetScatter(a.pullWords, u.Ind)
	return a.pullVal, a.pullWords
}

// pushOperands lowers the view into the (indices, values) pair the column
// kernels gather from, compacting bitset/dense views into arena scratch.
// For dense views every index is listed; bitset views enumerate set bits by
// trailing-zero counts, so an empty word costs one load. Under MulIndex the
// values are the indices themselves, so u's values are never read.
func pushOperands[T comparable](a *arena[T], u VecView[T], sr SR[T]) (ind []uint32, val []T) {
	index := sr.Form == MulIndex
	switch u.Kind {
	case KindSparse:
		ind, val = u.Ind, u.Val
	case KindDense:
		a.pushInd = grow(a.pushInd, u.N)
		for i := range a.pushInd {
			a.pushInd[i] = uint32(i)
		}
		ind, val = a.pushInd, u.Dval
	default:
		a.pushInd = a.pushInd[:0]
		a.pushVal = a.pushVal[:0]
		BitsetForEach(u.Words, func(i int) {
			a.pushInd = append(a.pushInd, uint32(i))
			if !index {
				a.pushVal = append(a.pushVal, u.Dval[i])
			}
		})
		ind, val = a.pushInd, a.pushVal
	}
	if index {
		val = *any(&ind).(*[]T) // only MinIndexUint32 runs MulIndex, so T is uint32
	}
	return ind, val
}
