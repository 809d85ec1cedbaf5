package graphblas

import (
	"context"

	"pushpull/internal/core"
)

// This file defines OpSpec, the declarative builder every vector operation
// runs through. An OpSpec names the four things GraphBLAS attaches to any
// operation besides its operands — output, mask, accumulator, descriptor —
// and the op methods hand it to one internal execute path (execute.go), so
// masks, accumulators, workspaces and format-aware kernel selection behave
// identically across MxV, apply, select and assign.
//
// Usage:
//
//	graphblas.Into(w).Mask(m).Accum(op).With(desc).Apply(f, u)
//
// Builder calls may appear in any order and all are optional: Into(w).Op(...)
// alone is the unmasked, non-accumulating, default-descriptor form.
//
// Semantics, uniform across every op:
//
//   - Mask restricts the *computed output pattern*: only positions the
//     effective mask allows are produced. Descriptor.StructuralComplement
//     flips the test (¬m) and Descriptor.MaskAllowList can enumerate the
//     allowed rows for the masked pull. Masks are structural — only the
//     mask's stored pattern matters, never its values — so any element
//     type works as a mask (a float64 frontier can mask a bool op).
//   - Without an accumulator the operation *replaces* w with the masked
//     result (positions outside the mask are not retained). With Accum(op)
//     the masked result t is merged into the existing w:
//     w(i) = op(w(i), t(i)) where both are present, w(i) = t(i) where only
//     t is, and w keeps its other elements — the GrB_accum merge, applied
//     through the same format-preserving machinery MxV uses.
//   - Assign and AssignScalar are the exception to "replace": they are
//     merges by definition (replace=false semantics), so without an accum
//     they overwrite only the positions they touch.
//
// The output storage format follows the operands (see execute.go): dense
// operands produce dense outputs, bitmap operands bitmap outputs, sparse
// operands sparse outputs — an Apply over a PageRank-dense vector never
// round-trips through a sparse copy.

// MaskVector is the polymorphic mask argument of OpSpec.Mask: any *Vector
// regardless of element type. Masks are structural (pattern-only), so the
// mask's element type is irrelevant to the operation's. The interface is
// sealed — only *Vector[M] implements it.
//
// Masks lower to one of two kernel layouts: packed words (bitset-format
// masks zero-copy, sparse masks materialized through the workspace's
// pooled word buffer) or presence bytes (bitmap/dense masks zero-copy).
type MaskVector interface {
	// Size returns the mask vector's length.
	Size() int
	// NVals returns the mask's stored-element count.
	NVals() int

	maskIsNil() bool
	maskLowerWS(ws *Workspace) (words []uint64, bits []bool)
	maskKnownEmpty() bool
	maskSparseIndices() ([]uint32, bool)
	maskNVals() int
}

// maskIsNil reports whether the typed pointer inside the interface is nil,
// so a (*Vector[bool])(nil) passed as a mask means "no mask" instead of a
// panic.
func (v *Vector[T]) maskIsNil() bool { return v == nil }

// maskLowerWS lowers the mask to the kernel layout — packed words or
// presence bytes, exactly one non-nil — through the workspace (see
// maskLowerFor).
func (v *Vector[T]) maskLowerWS(ws *Workspace) ([]uint64, []bool) { return maskLowerFor(ws, v) }

// maskNVals reports the mask's stored-element count as planner evidence:
// bitset-backed masks popcount their words (exact even after raw writes
// through BitsetView), sparse masks count their list; bitmap/dense counts
// trust the tracked nvals, which a raw DenseView writer may have left
// stale until RecountDense.
func (v *Vector[T]) maskNVals() int {
	switch v.format {
	case Bitset:
		return core.BitsetCount(v.dwords)
	case Sparse:
		return len(v.ind)
	default:
		return v.nvals
	}
}

// maskKnownEmpty reports that the mask certainly stores no elements.
func (v *Vector[T]) maskKnownEmpty() bool { return v.knownEmpty() }

// maskSparseIndices exposes a sparse mask's index list without conversion.
func (v *Vector[T]) maskSparseIndices() ([]uint32, bool) {
	if v == nil || v.format != Sparse {
		return nil, false
	}
	return v.ind, true
}

// OpSpec is the declarative operation description: output vector, optional
// mask, optional accumulator, optional descriptor. It is a small value —
// build one per call with Into and the fluent modifiers; there is nothing
// to reuse or pool.
type OpSpec[T comparable] struct {
	w      *Vector[T]
	mask   MaskVector
	accum  BinaryOp[T]
	desc   *Descriptor
	ctx    context.Context
	pullIn *Vector[T]
}

// Into starts an operation specification writing into w.
func Into[T comparable](w *Vector[T]) OpSpec[T] { return OpSpec[T]{w: w} }

// Mask sets the output mask. Any vector works regardless of element type
// (masks are structural); a nil — typed or untyped — clears the mask.
func (s OpSpec[T]) Mask(m MaskVector) OpSpec[T] {
	if m != nil && m.maskIsNil() {
		m = nil
	}
	s.mask = m
	return s
}

// Accum sets the accumulator: the result is merged into the existing w by
// w(i) = op(w(i), t(i)) instead of replacing it.
func (s OpSpec[T]) Accum(op BinaryOp[T]) OpSpec[T] { s.accum = op; return s }

// PullInput names the vector MxV's pull kernel reads in place of u — the
// paper's Optimization 4, operand reuse. The caller guarantees the masked
// product is the same either way: BFS passes its visited set, a superset of
// the frontier whose extra discoveries the ¬visited mask filters out, so a
// pull level probes the word-packed pattern it already has instead of
// converting the sparse frontier. The planner prices pull at v's storage
// kind and settles v's format on a pull; push ignores v. v must have u's
// size. Other operations ignore it.
func (s OpSpec[T]) PullInput(v *Vector[T]) OpSpec[T] { s.pullIn = v; return s }

// With sets the descriptor (mask complement, transpose, direction override,
// pinned workspace, plan sink, ...).
func (s OpSpec[T]) With(desc *Descriptor) OpSpec[T] { s.desc = desc; return s }

// WithContext makes this one operation abortable: the op checks ctx between
// kernel phases and returns a wrapped ErrCancelled once it is done. It
// overrides Descriptor.Context for the call. For chunk-level cancellation
// *inside* the parallel kernels as well, set Descriptor.Context instead —
// the descriptor caches the allocation-free token the kernels poll at chunk
// claims.
func (s OpSpec[T]) WithContext(ctx context.Context) OpSpec[T] { s.ctx = ctx; return s }

// context returns the operation's effective context: the per-call override,
// else the descriptor's. May be nil (never cancelled).
func (s OpSpec[T]) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return s.desc.context()
}

// ctxErr is CheckContext over the operation's effective context: nil while
// live, a wrapped ErrCancelled once done. Allocation-free on the live path.
func (s OpSpec[T]) ctxErr() error { return CheckContext(s.context()) }

// VxM computes w⟨mask⟩ = uᵀ·A (GrB_vxm), which equals Aᵀ·u: a pure
// descriptor-transposed view over the MxV pipeline entry point — it flips
// the descriptor's transpose flag and delegates, duplicating no planning or
// dispatch code.
func (s OpSpec[T]) VxM(sr Semiring[T], u *Vector[T], a *Matrix[T]) (TraversalDirection, error) {
	var flipped Descriptor
	if s.desc != nil {
		flipped = *s.desc
	}
	flipped.Transpose = !flipped.Transpose
	s.desc = &flipped
	return s.MxV(sr, a, u)
}

// Apply computes w⟨mask⟩ = f(u) elementwise over u's pattern (GrB_apply).
// w may alias u; the unmasked, non-accumulating aliased form runs in
// place.
func (s OpSpec[T]) Apply(f func(T) T, u *Vector[T]) error {
	return s.applyIndexed(func(_ int, x T) T { return f(x) }, u)
}

// ApplyIndexed computes w⟨mask⟩ = f(i, u(i)) over u's pattern, the
// index-aware variant of Apply (GrB_apply with an index-unary operator).
// w may alias u.
func (s OpSpec[T]) ApplyIndexed(f func(i int, x T) T, u *Vector[T]) error {
	return s.applyIndexed(f, u)
}

// Select keeps the elements of u for which pred(i, value) is true
// (GxB_select), restricted to the mask. w may alias u.
func (s OpSpec[T]) Select(pred func(i int, value T) bool, u *Vector[T]) error {
	return s.selectOp(pred, u)
}

// AssignVector merges u's stored elements into w where the mask allows:
// w(i) = u(i) — or accum(w(i), u(i)) with an accumulator — wherever u has
// an element, leaving the rest of w intact (GrB_assign with a vector,
// replace=false).
func (s OpSpec[T]) AssignVector(u *Vector[T]) error {
	return s.assignVector(u)
}

// AssignScalar sets w(i) = value — or accum(w(i), value) — at every index
// the effective mask allows, keeping all other positions (GrB_assign with
// a scalar, replace=false). A nil mask assigns everywhere.
func (s OpSpec[T]) AssignScalar(value T) error {
	return s.assignScalar(value)
}
