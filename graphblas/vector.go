package graphblas

import (
	"fmt"
	"math/bits"
	"sort"

	"pushpull/internal/core"
	"pushpull/internal/merge"
)

// Format names a Vector's current storage representation. The four
// formats form a lattice ordered by how much structure they materialize:
//
//	Sparse ⊂ {Bitset, Bitmap} ⊂ Dense
//
// Sparse is a sorted (index, value) pair list — the natural frontier
// representation for the push phase. Bitset and Bitmap are siblings: both
// keep a dense value array with an explicit presence pattern, Bitmap as
// one byte per position (the SPA layout of Gilbert, Moler and Schreiber),
// Bitset as one *bit* per position packed 64-to-a-uint64 — 8× smaller, so
// the pull side's complemented visited-mask probe touches an eighth of the
// memory, NVals is a popcount instead of a scan, and Boolean pattern
// algebra runs 64 positions per word op. Dense is a value array with
// *every* position stored — the presence probe disappears from kernel
// inner loops (PageRank ranks, converged depth vectors).
//
// Conversion rules: Sparse↔{Bitset, Bitmap} moves are driven by the
// direction planner (format follows the chosen direction, with hysteresis
// so a frontier hovering at the crossover does not flap; the planner's
// pull-side conversion lands in Bitset). Bitmap promotes to Dense
// automatically and for free the moment its pattern fills (nvals == n);
// Dense demotes back to Bitmap the moment an element is removed. A full
// Bitset stays Bitset — its packed words remain the pattern authority —
// and kernels still skip per-element probes through word ops. Promotion
// never changes the stored pattern — a partial vector stays Bitset/Bitmap
// no matter how it is converted.
type Format int

const (
	// Sparse stores sorted (index, value) pairs.
	Sparse Format = iota
	// Bitmap stores a value array plus a presence bitmap ([]bool).
	Bitmap
	// Dense stores a value array with every position present.
	Dense
	// Bitset stores a value array plus a word-packed presence bitset
	// ([]uint64, 64 positions per word, tail bits zero).
	Bitset
)

// String returns "sparse", "bitmap", "dense" or "bitset".
func (f Format) String() string {
	switch f {
	case Sparse:
		return "sparse"
	case Bitmap:
		return "bitmap"
	case Bitset:
		return "bitset"
	default:
		return "dense"
	}
}

// Vector is a GraphBLAS vector of length n over element type T, stored in
// one of four formats (see Format). Kernels consume it through
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
	// Bitmap/bitset/dense representation: value array of length n plus a
	// presence pattern — dpresent for Bitmap (and Dense, where it is kept
	// materialized and all-true so the object-model paths need no special
	// casing; kernels get a nil presence view instead), dwords for Bitset
	// (core.BitsetWords(n) packed words, tail bits zero). Exactly the
	// pattern named by format is authoritative; the other may be stale.
	dval     []T
	dpresent []bool
	dwords   []uint64
	nvals    int

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
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	if v.dpresent != nil {
		clearBools(v.dpresent)
	}
	if v.dwords != nil {
		core.BitsetZero(v.dwords)
	}
	v.nvals = 0
	v.format = Sparse
	v.pstate.Reset()
}

func clearBools(b []bool) {
	for i := range b {
		b[i] = false
	}
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
	if v.format == Bitset {
		if !core.BitsetGet(v.dwords, i) {
			core.BitsetSet(v.dwords, i)
			v.nvals++
		}
		v.dval[i] = value
		return nil
	}
	if v.format != Sparse {
		if !v.dpresent[i] {
			v.dpresent[i] = true
			v.nvals++
			v.maybePromoteFull()
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

// RemoveElement deletes the element at index i if present. Removing from a
// Dense vector demotes it to Bitmap (its pattern is no longer full).
func (v *Vector[T]) RemoveElement(i int) error {
	if i < 0 || i >= v.n {
		return fmt.Errorf("%w: index %d in vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	if v.format == Bitset {
		if core.BitsetGet(v.dwords, i) {
			core.BitsetUnset(v.dwords, i)
			v.nvals--
		}
		return nil
	}
	if v.format != Sparse {
		if v.dpresent[i] {
			v.format = Bitmap
			v.dpresent[i] = false
			v.nvals--
		}
		return nil
	}
	pos := sort.Search(len(v.ind), func(k int) bool { return v.ind[k] >= uint32(i) })
	if pos < len(v.ind) && v.ind[pos] == uint32(i) {
		copy(v.ind[pos:], v.ind[pos+1:])
		copy(v.val[pos:], v.val[pos+1:])
		v.ind = v.ind[:len(v.ind)-1]
		v.val = v.val[:len(v.val)-1]
	}
	return nil
}

// ExtractElement returns the element at index i, or ErrNoValue if absent.
func (v *Vector[T]) ExtractElement(i int) (T, error) {
	var zero T
	if i < 0 || i >= v.n {
		return zero, fmt.Errorf("%w: index %d in vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	if v.format == Bitset {
		if core.BitsetGet(v.dwords, i) {
			return v.dval[i], nil
		}
		return zero, ErrNoValue
	}
	if v.format != Sparse {
		if v.dpresent[i] {
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
		out.dpresent = append([]bool(nil), v.dpresent...)
	}
	if v.dwords != nil {
		out.dwords = append([]uint64(nil), v.dwords...)
	}
	return out
}

// Iterate calls fn for every stored element in ascending index order,
// stopping early if fn returns false.
func (v *Vector[T]) Iterate(fn func(i int, value T) bool) {
	switch v.format {
	case Sparse:
		for k, idx := range v.ind {
			if !fn(int(idx), v.val[k]) {
				return
			}
		}
	case Dense:
		for i := 0; i < v.n; i++ {
			if !fn(i, v.dval[i]) {
				return
			}
		}
	case Bitset:
		for wi, w := range v.dwords {
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				if !fn(i, v.dval[i]) {
					return
				}
			}
		}
	default:
		for i := 0; i < v.n; i++ {
			if v.dpresent[i] {
				if !fn(i, v.dval[i]) {
					return
				}
			}
		}
	}
}

// ToBitmap converts to the bitmap representation (sparse2bitmap). Dense
// vectors demote in O(1) — their presence array is already materialized
// all-true; bitset vectors expand their packed words into presence bytes.
// No-op if already bitmap.
func (v *Vector[T]) ToBitmap() {
	switch v.format {
	case Bitmap:
		return
	case Dense:
		v.format = Bitmap
		return
	case Bitset:
		v.ensurePresent()
		core.BitsetExpand(v.dpresent, v.dwords)
		v.nvals = core.BitsetCount(v.dwords)
		core.BitsetZero(v.dwords)
		v.format = Bitmap
		v.maybePromoteFull()
		return
	}
	if v.dval == nil {
		v.dval = make([]T, v.n)
	}
	v.ensurePresent()
	clearBools(v.dpresent)
	for k, idx := range v.ind {
		v.dval[idx] = v.val[k]
		v.dpresent[idx] = true
	}
	v.nvals = len(v.ind)
	v.format = Bitmap
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	v.maybePromoteFull()
}

// ToBitset converts to the word-packed bitset representation: sparse
// vectors scatter single bits (and values) into place, bitmap and dense
// vectors pack their presence bytes 64-at-a-time. No-op if already bitset.
// The packed words are 1/8 the size of the bitmap's presence array — the
// representation to keep a visited set or reusable mask in.
func (v *Vector[T]) ToBitset() {
	switch v.format {
	case Bitset:
		return
	case Bitmap, Dense:
		v.ensureWords()
		v.nvals = core.BitsetFromBools(v.dwords, v.dpresent)
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

// ensurePresent materializes the presence-byte array.
func (v *Vector[T]) ensurePresent() {
	if v.dpresent == nil {
		v.dpresent = make([]bool, v.n)
	}
}

// ensureWords materializes the packed presence words.
func (v *Vector[T]) ensureWords() {
	if v.dwords == nil {
		v.dwords = make([]uint64, core.BitsetWords(v.n))
	}
}

// ToDense densifies as far as the stored pattern allows: the vector
// converts to bitmap layout, then promotes to the Dense format exactly
// when every position is present (nvals == n). Promotion never invents
// elements — a partial vector lands in (and stays) Bitmap. Use Fill to
// make a vector genuinely full.
func (v *Vector[T]) ToDense() {
	if v.format == Dense {
		return
	}
	v.ToBitmap()
}

// Fill stores value at every position, leaving the vector Dense. This is
// the one pattern-changing densification (PageRank-style value-complete
// vectors); ToDense never invents elements. A Bitset vector's stale words
// are cleared so a later ToBitset repack starts from the live pattern.
func (v *Vector[T]) Fill(value T) {
	if v.dval == nil {
		v.dval = make([]T, v.n)
	}
	v.ensurePresent()
	for i := range v.dval {
		v.dval[i] = value
		v.dpresent[i] = true
	}
	if v.format == Bitset {
		core.BitsetZero(v.dwords)
	}
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	v.nvals = v.n
	v.format = Dense
}

// ToSparse converts to the sparse representation (bitmap2sparse /
// bitset2sparse — the latter enumerates set bits by trailing-zero counts,
// so an empty word costs one load). No-op if already sparse.
func (v *Vector[T]) ToSparse() {
	if v.format == Sparse {
		return
	}
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	if v.format == Bitset {
		for wi, w := range v.dwords {
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				v.ind = append(v.ind, uint32(i))
				v.val = append(v.val, v.dval[i])
			}
		}
		core.BitsetZero(v.dwords)
		v.nvals = 0
		v.format = Sparse
		return
	}
	for i := 0; i < v.n; i++ {
		if v.dpresent[i] {
			v.ind = append(v.ind, uint32(i))
			v.val = append(v.val, v.dval[i])
		}
	}
	clearBools(v.dpresent)
	v.nvals = 0
	v.format = Sparse
}

// maybePromoteFull promotes Bitmap to Dense when the pattern has filled.
// The presence array stays materialized (and all-true), so demotion and
// the object-model paths cost nothing.
func (v *Vector[T]) maybePromoteFull() {
	if v.format == Bitmap && v.nvals == v.n && v.n > 0 {
		v.format = Dense
	}
}

// settleFormat moves the vector's storage toward the planned direction's
// preferred format, with the plan's trend as the hysteresis gate: pull
// wants O(1) probes (bitmap or denser, converted unconditionally since the
// kernel requires it); push wants the sparse list back once the frontier
// has shrunk below the paper's switch-point (core.DefaultSwitchPoint) while
// shrinking.
func (v *Vector[T]) settleFormat(plan core.Plan) {
	switch plan.Dir {
	case core.Pull:
		if v.format == Sparse {
			// The pull conversion lands in the word-packed format: the
			// kernel probes single bits either way, and the 8×-smaller
			// pattern is what a frontier reused as next iteration's mask
			// wants to be stored in.
			v.ToBitset()
		}
	case core.Push:
		if (v.format == Bitmap || v.format == Bitset) && v.n > 0 && plan.Shrinking &&
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
	case Bitset:
		return core.BitsetVec(v.dval, v.dwords, v.nvals)
	default:
		return core.BitmapVec(v.dval, v.dpresent, v.nvals)
	}
}

// sparseView returns the sparse arrays, converting if needed.
func (v *Vector[T]) sparseView() ([]uint32, []T) {
	v.ToSparse()
	return v.ind, v.val
}

// denseView returns the bitmap-layout arrays (values + presence),
// converting sparse and bitset vectors first. Dense vectors hand out their
// all-true presence array.
func (v *Vector[T]) denseView() ([]T, []bool) {
	if v.format == Sparse || v.format == Bitset {
		v.ToBitmap()
	}
	return v.dval, v.dpresent
}

// DenseView converts the vector to bitmap layout if needed and exposes its
// raw value and presence arrays. The slices alias internal storage: callers
// may read them freely but must not grow them, and writes bypass NVals
// bookkeeping (call RecountDense afterwards). Algorithm layers use this to
// probe bitmaps without per-element calls.
func (v *Vector[T]) DenseView() (values []T, present []bool) {
	return v.denseView()
}

// SparseView sparsifies the vector if needed and exposes its raw index and
// value slices (sorted ascending). The slices alias internal storage and
// must be treated as read-only.
func (v *Vector[T]) SparseView() (indices []uint32, values []T) {
	return v.sparseView()
}

// BitsetView converts the vector to the word-packed bitset format if
// needed and exposes its raw value array and presence words (bit i of
// words[i/64]; tail bits zero). The slices alias internal storage: callers
// may read freely — single-bit probes against an 8×-smaller pattern than
// DenseView's presence bytes — and may write bits, but writes bypass NVals
// bookkeeping (call RecountDense afterwards, a popcount, not a scan).
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

// RecountDense refreshes NVals after a caller wrote the presence pattern
// exposed by DenseView or BitsetView directly, promoting to Dense if a
// bitmap pattern filled or demoting if it no longer is full. For bitset
// vectors the recount is a popcount over the packed words
// (math/bits.OnesCount64), not an O(n) scan. It is a no-op for sparse
// vectors.
func (v *Vector[T]) RecountDense() {
	switch v.format {
	case Sparse:
	case Bitset:
		v.nvals = core.BitsetCount(v.dwords)
	default:
		v.recountDense()
	}
}

// knownEmpty reports, conservatively, that the vector certainly stores no
// elements. Only the sparse representation answers true: a bitmap vector's
// nvals can be stale when callers write the presence array through
// DenseView without RecountDense, so its bitmap — not the counter — must
// stay the source of truth for kernel masks.
func (v *Vector[T]) knownEmpty() bool {
	return v.format == Sparse && len(v.ind) == 0
}

// setSparseResult installs kernel output (sorted unique indices) as the
// vector's contents, leaving it in sparse format.
func (v *Vector[T]) setSparseResult(ind []uint32, val []T) {
	v.ind = ind
	v.val = val
	if v.dpresent != nil {
		clearBools(v.dpresent)
	}
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
	v.ind = append(v.ind[:0], ind...)
	v.val = append(v.val[:0], val...)
	if v.dpresent != nil {
		clearBools(v.dpresent)
	}
	if v.dwords != nil {
		core.BitsetZero(v.dwords)
	}
	v.nvals = 0
	v.format = Sparse
}

// setDenseCount records the stored-element count after a kernel reported
// how many outputs it wrote into the bitmap buffers, promoting to Dense
// when the pattern filled.
func (v *Vector[T]) setDenseCount(nvals int) {
	v.nvals = nvals
	v.maybePromoteFull()
}

// ensureDenseBuffers readies zeroed bitmap arrays for a kernel to write
// into, leaving the vector in bitmap format with no stored elements.
func (v *Vector[T]) ensureDenseBuffers() ([]T, []bool) {
	if v.dval == nil {
		v.dval = make([]T, v.n)
	}
	if v.dpresent == nil {
		v.dpresent = make([]bool, v.n)
	} else {
		clearBools(v.dpresent)
	}
	if v.format == Bitset {
		core.BitsetZero(v.dwords)
	}
	v.ind = v.ind[:0]
	v.val = v.val[:0]
	v.format = Bitmap
	v.nvals = 0
	return v.dval, v.dpresent
}

// ensureBitsetBuffers readies zeroed word-packed buffers for a bitset-out
// kernel to write into, leaving the vector in bitset format with no stored
// elements. The kernels overwrite every word, so no clear is needed here
// beyond allocation.
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

// recountDense refreshes nvals after the bitmap buffers were written raw,
// and re-settles the Bitmap/Dense split on the recounted pattern.
func (v *Vector[T]) recountDense() {
	c := 0
	for _, p := range v.dpresent {
		if p {
			c++
		}
	}
	v.nvals = c
	if c < v.n {
		v.format = Bitmap
	} else {
		v.maybePromoteFull()
	}
}
