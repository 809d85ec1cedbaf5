package graphblas

import (
	"fmt"
	"math/bits"
	"sort"

	"pushpull/internal/core"
	"pushpull/internal/merge"
)

// Format names a Vector's current storage representation. The three
// formats form a lattice ordered by how much structure they materialize:
//
//	Sparse ⊂ Bitset ⊂ Dense
//
// Sparse is a sorted (index, value) pair list — the natural frontier
// representation for the push phase. Bitset keeps a dense value array and
// its presence pattern packed one bit per position, 64 to a uint64 word:
// the pull side's complemented visited-mask probe is a single-bit load,
// NVals is a popcount, and Boolean pattern algebra runs 64 positions per
// word op. Dense is a Bitset whose words are all ones: every position is
// stored, so kernels skip the presence probe (PageRank ranks, converged
// depth vectors).
//
// Conversion rules: Sparse↔Bitset moves are driven by the direction
// planner (a pulled sparse vector packs into words; a pushed bitset that
// has shrunk below the switch-point while shrinking sparsifies, with
// hysteresis so a frontier hovering at the crossover does not flap). The
// one promotion rule: a Bitset whose pattern fills (nvals == n) as an
// operation writes it becomes Dense. Promotion never invents elements — a
// partial vector stays Bitset — and Fill is the one pattern-changing
// densification.
type Format int

const (
	// Sparse stores sorted (index, value) pairs.
	Sparse Format = iota
	// Dense stores a value array with every position present.
	Dense
	// Bitset stores a value array plus a word-packed presence bitset
	// ([]uint64, 64 positions per word, tail bits zero).
	Bitset
)

// String returns "sparse", "dense" or "bitset".
func (f Format) String() string {
	switch f {
	case Sparse:
		return "sparse"
	case Bitset:
		return "bitset"
	default:
		return "dense"
	}
}

// Vector is a GraphBLAS vector of length n over element type T, stored in
// one of three formats (see Format). Kernels consume it through
// format-agnostic views (internal/core.VecView); MxV's direction planner
// decides push vs pull from an edge-based cost model and the storage
// format then follows the chosen direction.
//
// A Vector is not safe for concurrent mutation.
type Vector[T comparable] struct {
	n int

	format Format
	// Sparse representation: parallel slices, ind sorted ascending, unique.
	ind []uint32
	val []T
	// Bitset/dense representation: value array of length n plus the
	// presence words (core.BitsetWords(n) of them, tail bits zero; all
	// ones for Dense).
	dval   []T
	dwords []uint64
	nvals  int

	// Planner hysteresis: previous direction decision and frontier
	// population for this vector when it is used as an MxV input under
	// Direction == Auto.
	pstate core.PlanState
}

// NewVector returns an empty sparse vector of length n.
func NewVector[T comparable](n int) *Vector[T] {
	if n < 0 {
		panic("graphblas: negative vector length")
	}
	return &Vector[T]{n: n, format: Sparse}
}

// Size returns the vector's length (the GraphBLAS "size").
func (v *Vector[T]) Size() int { return v.n }

// NVals returns the number of stored elements.
func (v *Vector[T]) NVals() int {
	if v.format == Sparse {
		return len(v.ind)
	}
	return v.nvals
}

// Format reports the current storage representation.
func (v *Vector[T]) Format() Format { return v.format }

// Clear removes all stored elements, keeping capacity where possible, and
// resets the vector to sparse format with cleared hysteresis.
func (v *Vector[T]) Clear() {
	v.setSparseResult(v.ind[:0], v.val[:0])
	v.pstate.Reset()
}

// Build initializes the vector from (index, value) pairs, replacing any
// existing contents. Indices need not be sorted but must be in range;
// duplicates are folded with dup (last write wins when dup is nil).
func (v *Vector[T]) Build(indices []uint32, values []T, dup BinaryOp[T]) error {
	if len(indices) != len(values) {
		return fmt.Errorf("%w: %d indices, %d values", ErrInvalidValue, len(indices), len(values))
	}
	for _, i := range indices {
		if int(i) >= v.n {
			return fmt.Errorf("%w: index %d in vector of size %d", ErrIndexOutOfBounds, i, v.n)
		}
	}
	v.Clear()
	ind := append([]uint32(nil), indices...)
	val := append([]T(nil), values...)
	if v.n > 0 {
		merge.SortPairs(ind, val, uint32(v.n-1))
	}
	w := 0
	for i := range ind {
		if w > 0 && ind[w-1] == ind[i] {
			if dup != nil {
				val[w-1] = dup(val[w-1], val[i])
			} else {
				val[w-1] = val[i]
			}
			continue
		}
		ind[w] = ind[i]
		val[w] = val[i]
		w++
	}
	v.ind = ind[:w]
	v.val = val[:w]
	return nil
}

// SetElement stores value at index i, overwriting any existing element.
func (v *Vector[T]) SetElement(i int, value T) error {
	if i < 0 || i >= v.n {
		return fmt.Errorf("%w: index %d in vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	if v.format != Sparse {
		if !core.BitsetGet(v.dwords, i) {
			core.BitsetSet(v.dwords, i)
			v.nvals++
			v.promoteFull()
		}
		v.dval[i] = value
		return nil
	}
	pos := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= uint32(i) })
	if pos < len(v.ind) && v.ind[pos] == uint32(i) {
		v.val[pos] = value
		return nil
	}
	v.ind = append(v.ind, 0)
	v.val = append(v.val, value)
	copy(v.ind[pos+1:], v.ind[pos:])
	copy(v.val[pos+1:], v.val[pos:])
	v.ind[pos] = uint32(i)
	v.val[pos] = value
	return nil
}

// ExtractElement returns the element at index i, or ErrNoValue if absent.
func (v *Vector[T]) ExtractElement(i int) (T, error) {
	var zero T
	if i < 0 || i >= v.n {
		return zero, fmt.Errorf("%w: index %d in vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	if v.format != Sparse {
		if core.BitsetGet(v.dwords, i) {
			return v.dval[i], nil
		}
		return zero, ErrNoValue
	}
	pos := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= uint32(i) })
	if pos < len(v.ind) && v.ind[pos] == uint32(i) {
		return v.val[pos], nil
	}
	return zero, ErrNoValue
}

// Dup returns a deep copy.
func (v *Vector[T]) Dup() *Vector[T] {
	out := &Vector[T]{
		n:      v.n,
		format: v.format,
		nvals:  v.nvals,
		pstate: v.pstate,
	}
	out.ind = append([]uint32(nil), v.ind...)
	out.val = append([]T(nil), v.val...)
	if v.dval != nil {
		out.dval = append([]T(nil), v.dval...)
	}
	if v.dwords != nil {
		out.dwords = append([]uint64(nil), v.dwords...)
	}
	return out
}

// Iterate calls fn for every stored element in ascending index order,
// stopping early if fn returns false. Bitset and dense vectors enumerate
// their presence words by trailing-zero counts, so an empty word costs one
// load.
func (v *Vector[T]) Iterate(fn func(i int, value T) bool) {
	if v.format == Sparse {
		for k, idx := range v.ind {
			if !fn(int(idx), v.val[k]) {
				return
			}
		}
		return
	}
	for wi, w := range v.dwords {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			if !fn(i, v.dval[i]) {
				return
			}
		}
	}
}

// ToBitset converts to the word-packed bitset representation: sparse
// vectors scatter single bits (and values) into place, dense vectors keep
// their all-ones words. No-op if already bitset. The representation to
// keep a visited set or reusable mask in.
func (v *Vector[T]) ToBitset() {
	switch v.format {
	case Bitset:
		return
	case Dense:
		v.format = Bitset
		return
	}
	if v.dval == nil {
		v.dval = make([]T, v.n)
	}
	v.ensureWords()
	core.BitsetZero(v.dwords)
	for k, idx := range v.ind {
		v.dval[idx] = v.val[k]
	}
	core.BitsetScatter(v.dwords, v.ind)
	v.nvals = len(v.ind)
	v.format = Bitset
	v.ind = v.ind[:0]
	v.val = v.val[:0]
}

// ensureWords materializes the packed presence words.
func (v *Vector[T]) ensureWords() {
	if v.dwords == nil {
		v.dwords = make([]uint64, core.BitsetWords(v.n))
	}
}

// Fill stores value at every position, leaving the vector Dense. This is
// the one pattern-changing densification (PageRank-style value-complete
// vectors): promotion never invents elements.
func (v *Vector[T]) Fill(value T) {
	if v.dval == nil {
		v.dval = make([]T, v.n)
	}
	for i := range v.dval {
		v.dval[i] = value
	}
	v.ensureWords()
	core.BitsetSetAll(v.dwords, v.n)
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	v.nvals = v.n
	v.format = Dense
}

// ToSparse converts to the sparse representation (bitset2sparse, which
// enumerates set bits by trailing-zero counts). No-op if already sparse.
func (v *Vector[T]) ToSparse() {
	if v.format == Sparse {
		return
	}
	ind, val := v.ind[:0], v.val[:0]
	v.Iterate(func(i int, x T) bool {
		ind = append(ind, uint32(i))
		val = append(val, x)
		return true
	})
	v.setSparseResult(ind, val)
}

// promoteFull is the one promotion rule: a Bitset whose pattern has filled
// becomes Dense (its words are then all ones).
func (v *Vector[T]) promoteFull() {
	if v.format == Bitset && v.nvals == v.n && v.n > 0 {
		v.format = Dense
	}
}

// settleFormat moves the vector's storage toward the planned direction's
// preferred format, with the plan's trend as the hysteresis gate: pull
// wants O(1) probes (a sparse vector packs into words, unconditionally
// since the kernel requires it); push wants the sparse list back once the
// frontier has shrunk below the paper's switch-point
// (core.DefaultSwitchPoint) while shrinking.
func (v *Vector[T]) settleFormat(plan core.Plan) {
	switch plan.Dir {
	case core.Pull:
		if v.format == Sparse {
			v.ToBitset()
		}
	case core.Push:
		if v.format == Bitset && v.n > 0 && plan.Shrinking &&
			float64(v.nvals)/float64(v.n) < core.DefaultSwitchPoint {
			v.ToSparse()
		}
	}
}

// kernelView lowers the vector's current storage into the format-agnostic
// view the kernels consume, without converting or copying.
func (v *Vector[T]) kernelView() core.VecView[T] {
	switch v.format {
	case Sparse:
		return core.SparseVec(v.n, v.ind, v.val)
	case Dense:
		return core.DenseVec(v.dval)
	default:
		return core.BitsetVec(v.dval, v.dwords, v.nvals)
	}
}

// DenseView packs a sparse vector into the bitset format if needed and
// exposes its raw value array (length n). The slice aliases internal
// storage: callers may read it and write values at stored positions in
// place, but must not grow it. Algorithm layers use this to probe and
// update value-complete vectors without per-element calls.
func (v *Vector[T]) DenseView() []T {
	if v.format == Sparse {
		v.ToBitset()
	}
	return v.dval
}

// BitsetView converts the vector to the word-packed bitset format if
// needed and exposes its raw value array and presence words (bit i of
// words[i/64]; tail bits zero). The slices alias internal storage: callers
// may read freely and may write bits, but bit writes bypass NVals
// bookkeeping, so a vector written this way should serve only as a mask or
// a pull input afterwards (both read the words, not the count).
func (v *Vector[T]) BitsetView() (values []T, words []uint64) {
	v.ToBitset()
	return v.dval, v.dwords
}

// SparseIndices returns the vector's index list without converting: ok is
// false (and indices nil) unless the vector is currently sparse. The
// direction planner uses it to read frontier out-degrees off CSC.Ptr in
// O(nnz) without disturbing the storage format.
func (v *Vector[T]) SparseIndices() (indices []uint32, ok bool) {
	if v.format != Sparse {
		return nil, false
	}
	return v.ind, true
}

// setSparseResult installs kernel output (sorted unique indices) as the
// vector's contents, leaving it in sparse format.
func (v *Vector[T]) setSparseResult(ind []uint32, val []T) {
	v.ind = ind
	v.val = val
	if v.dwords != nil {
		core.BitsetZero(v.dwords)
	}
	v.nvals = 0
	v.format = Sparse
}

// setSparseCopy installs kernel output by copying it into the vector's own
// reusable index/value storage, leaving it in sparse format. Used when the
// source slices alias workspace scratch that the next kernel call will
// overwrite; steady-state cost is a copy into warm capacity, not an
// allocation.
func (v *Vector[T]) setSparseCopy(ind []uint32, val []T) {
	v.setSparseResult(append(v.ind[:0], ind...), append(v.val[:0], val...))
}

// setDenseCount records the stored-element count after a kernel reported
// how many outputs it wrote into the bitset buffers, promoting to Dense
// when the pattern filled.
func (v *Vector[T]) setDenseCount(nvals int) {
	v.nvals = nvals
	v.promoteFull()
}

// ensureBitsetBuffers readies word-packed buffers for a bitset-out kernel
// (or a packed byte output) to write into, leaving the vector in bitset
// format with no stored elements. The writers overwrite every word, so no
// clear is needed here beyond allocation.
func (v *Vector[T]) ensureBitsetBuffers() ([]T, []uint64) {
	if v.dval == nil {
		v.dval = make([]T, v.n)
	}
	v.ensureWords()
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	v.format = Bitset
	v.nvals = 0
	return v.dval, v.dwords
}
