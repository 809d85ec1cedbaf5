// Package core implements the paper's primary contribution: the four
// sparse matrix-vector multiply variants of Table 1 — row-based and
// column-based matvec, each in masked and unmasked form — over generalized
// semirings, together with the early-exit, structure-only and
// direction-switching machinery that makes push-pull expressible as a
// single GraphBLAS mxv.
//
// Orientation convention: every kernel computes w = G·u for a traversal
// matrix G. The row kernels take CSR(G) and iterate output rows (the pull
// direction); the column kernels take CSC(G) — represented as a CSR whose
// row i holds column i of G — and fetch columns for the nonzeroes of u
// (the push direction). For BFS, G = Aᵀ, so CSR(G) is the CSC of the
// adjacency matrix and CSC(G) its CSR; the matrix layer stores both.
//
// The public graphblas package wraps these kernels in the GraphBLAS object
// model; algorithms build on that. Only tests and the experiment harness
// call core directly.
package core

import "pushpull/internal/par"

// MulForm names what a semiring's ⊗ needs from the matrix. The kernels
// resolve it once per call (SR.resolve) and branch on it outside their
// inner loops, so the forms that do not need the stored matrix values never
// load them — the paper's Optimization 5 as a property of the semiring.
type MulForm uint8

const (
	// MulGeneral is ⊗(a_ij, x_j) = Mul(a_ij, x_j): matrix and vector
	// values are both read.
	MulGeneral MulForm = iota
	// MulSecond is ⊗(a_ij, x_j) = x_j: the product is the vector operand,
	// Mul is never called and the matrix's Val array is never read (it may
	// be nil).
	MulSecond
	// MulOne is ⊗(a_ij, x_j) = One: neither value is read. Opts.StructureOnly
	// selects it for any semiring.
	MulOne
)

// SR is a generalized semiring (D, ⊗, ⊕, I) in the paper's Section 3.2
// sense, plus the extra elements the optimizations need:
//
//   - Terminal: an annihilator z of the additive monoid (z ⊕ x = z for all
//     x). When present, a row accumulation may stop the moment the
//     accumulator reaches z — the paper's Optimization 3 (early-exit),
//     legal exactly because further ⊕ terms cannot change the result. For
//     the Boolean semiring ({0,1}, AND, OR, 0), z = 1 ("true").
//   - One: the multiplicative identity, used as the pattern value by the
//     structure-only mode (Optimization 5), which treats every stored
//     matrix entry as One and never touches the value arrays.
//   - Form: which operands ⊗ reads (the zero value is the general form).
//   - Builtin: a promise that the semiring is exactly the named one over T
//     — its Add, Mul, Form and Terminal as graphblas's constructor ships
//     them — so the pull kernels fold rows with a concrete loop instead of
//     a closure call per edge. Id is still read from the struct and the
//     fold order is the closure loop's, so results are bit-identical. The
//     push kernels and the counted twins ignore it.
type SR[T comparable] struct {
	Add      func(T, T) T
	Id       T
	Terminal *T
	Mul      func(T, T) T
	One      T
	Form     MulForm
	Builtin  Builtin
}

// Builtin names a semiring whose pull fold runs as a concrete loop; the
// zero value runs the closures.
type Builtin uint8

const (
	BuiltinNone              Builtin = iota
	BuiltinPlusSecondFloat64         // (+, second) over float64: PageRank, BC
	BuiltinMinPlusFloat64            // (math.Min, +) over float64: SSSP
	BuiltinMinSecondUint32           // (min, second) over uint32: CC, ParentBFS
)

// Saturated reports whether v equals the additive terminal, meaning
// accumulation can stop.
func (s SR[T]) Saturated(v T) bool { return s.Terminal != nil && v == *s.Terminal }

// resolve folds a call's options into the semiring the kernels run:
// StructureOnly selects the One form (which no builtin arm serves), and
// without EarlyExit the terminal is dropped — so inner loops test sr.Form
// and sr.Terminal alone.
func (s SR[T]) resolve(opts Opts) SR[T] {
	if opts.StructureOnly {
		s.Form = MulOne
		s.Builtin = BuiltinNone
	}
	if !opts.EarlyExit {
		s.Terminal = nil
	}
	return s
}

// Opts toggles the paper's separable optimizations on a per-call basis so
// the harness can measure each one's contribution (Table 2).
type Opts struct {
	// StructureOnly makes kernels ignore matrix and input values and
	// produce SR.One for every discovered output (Optimization 5). Only
	// sound for semirings where ⊕ is idempotent over {One}, e.g. Boolean
	// OR; in the push phase it downgrades the key-value sort to key-only.
	StructureOnly bool
	// EarlyExit permits the row kernels to stop a row once the accumulator
	// is saturated (Optimization 3). Ignored unless the semiring has a
	// Terminal.
	EarlyExit bool
	// Ws is the kernel scratch workspace. Iterative algorithms pin one
	// across their whole run so the steady state allocates nothing; when
	// nil, each kernel call runs on a fresh arena, so push outputs are
	// caller-owned.
	Ws *Workspace
	// Cancel is the cooperative cancellation token the parallel kernels
	// check at chunk-claim boundaries (and the sequential scatter paths
	// check periodically). When it trips mid-kernel the kernel stops
	// scheduling work and returns with partial output; the caller owns the
	// post-call token/context check that decides whether to trust the
	// result. nil never cancels and costs one branch per check.
	Cancel *par.Token
}

// MaskView is the kernel-level mask: a dense presence layout — byte
// bitmap or word-packed bitset — plus the structural-complement flag (the
// paper's scmp), and optionally a precomputed list of rows the effective
// mask allows. Maintaining that list across BFS iterations is how the
// paper amortizes the O(M) cost of locating mask zeroes (Section 3.2's
// SPA-like structure). Exactly one of Bits/Words is set for a non-empty
// mask; Words is the preferred layout (sparse masks materialize into
// pooled word buffers, bitset-format mask vectors hand their words out
// zero-copy) and lets the masked row loop and the structural complement
// operate 64 rows per word.
type MaskView struct {
	// Bits[i] reports whether the mask vector stores a nonzero at i
	// (bitmap/dense-backed masks, zero-copy presence arrays).
	Bits []bool
	// Words is the word-packed equivalent: bit i of Words[i/64]. When
	// non-nil it takes precedence over Bits.
	Words []uint64
	// Scmp complements the test: when true, rows with Bits[i]==false pass.
	Scmp bool
	// List, when non-nil, enumerates exactly the rows that pass the
	// effective test, sorted ascending. Kernels then skip the bitmap scan.
	List []uint32
	// KnownEmpty asserts the mask vector stores no entries (every Bits[i]
	// is false), which the vector layer knows for free from its nvals
	// bookkeeping. Kernels use it for two degenerate-mask fast paths: an
	// empty complemented mask allows everything, so the push kernel skips
	// its post-merge filter entirely (and the pull kernel runs unmasked);
	// an empty uncomplemented mask allows nothing, so the output is empty
	// without touching the matrix.
	KnownEmpty bool
}

// Allows reports whether the effective mask passes row i, probing a single
// bit for word-packed masks.
func (m MaskView) Allows(i int) bool {
	if m.Words != nil {
		return BitsetGet(m.Words, i) != m.Scmp
	}
	return m.Bits[i] != m.Scmp
}

// EffectiveWord returns the 64-row allow pattern at word index wi of a
// word-packed mask, with the structural complement already applied
// (complementing flips the whole word at once). tail must be the
// BitsetTailMask of the output dimension for the last word and ^0
// otherwise, so complemented bits past the end never pass.
func (m MaskView) EffectiveWord(wi int, tail uint64) uint64 {
	w := m.Words[wi]
	if m.Scmp {
		w = ^w
	}
	return w & tail
}

// Counter accumulates the RAM-model cost the paper's Table 1 is stated in:
// random accesses into the matrix, plus bookkeeping for the merge. The
// instrumented (sequential) kernels fill it; parallel kernels do not count.
type Counter struct {
	// MatrixAccesses counts loads of matrix index/value entries.
	MatrixAccesses int64
	// VectorAccesses counts loads of input-vector entries.
	VectorAccesses int64
	// MaskAccesses counts mask-bitmap probes.
	MaskAccesses int64
	// MergeOps counts comparisons/moves spent merging in the push phase.
	MergeOps int64
}

// Add accumulates other into c.
func (c *Counter) Add(other Counter) {
	c.MatrixAccesses += other.MatrixAccesses
	c.VectorAccesses += other.VectorAccesses
	c.MaskAccesses += other.MaskAccesses
	c.MergeOps += other.MergeOps
}

// Total returns the summed access count — the y-axis of the Table 1
// validation experiment.
func (c Counter) Total() int64 {
	return c.MatrixAccesses + c.VectorAccesses + c.MaskAccesses + c.MergeOps
}
