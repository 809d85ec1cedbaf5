package graphblas

import "pushpull/internal/core"

// This file defines OpSpec, the declarative builder every vector operation
// runs through. An OpSpec names what the library attaches to any operation
// besides its operands — output, mask, descriptor — and the op methods hand
// it to one internal execute path (execute.go), so masks, workspaces and
// format-aware kernel selection behave identically across MxV, apply,
// select and assign.
//
// Usage:
//
//	graphblas.Into(w).Mask(m).With(desc).Apply(f, u)
//
// Builder calls may appear in any order and all are optional: Into(w).Op(...)
// alone is the unmasked, default-descriptor form.
//
// Semantics, uniform across every op:
//
//   - Mask restricts the *computed output pattern*: only positions the
//     effective mask allows are produced. Descriptor.StructuralComplement
//     flips the test (¬m) and Descriptor.MaskAllowList can enumerate the
//     allowed rows for the masked pull. Masks are structural — only the
//     mask's stored pattern matters, never its values — so any element
//     type works as a mask (a float64 frontier can mask a bool op).
//   - MxV, Apply, ApplyIndexed and Select *replace* w with the masked
//     result (positions outside the mask are not retained). There is no
//     accumulator: a relaxation that lowers values it filters (SSSP, CC)
//     does the lowering in its Select predicate (see Select).
//   - AssignVector is a merge by definition (replace=false semantics): it
//     overwrites only the positions it touches.
//
// The output storage format follows the operands (see execute.go): bitset
// and dense operands produce bitset outputs (dense when full), sparse
// operands sparse outputs — an Apply over a PageRank-dense vector never
// round-trips through a sparse copy.

// MaskVector is the polymorphic mask argument of OpSpec.Mask: any *Vector
// regardless of element type. Masks are structural (pattern-only), so the
// mask's element type is irrelevant to the operation's. The interface is
// sealed — only *Vector[M] implements it.
//
// Masks lower to one kernel layout, packed words: bitset and dense masks
// hand theirs out zero-copy, sparse masks materialize through the
// workspace's pooled word buffer.
type MaskVector interface {
	// Size returns the mask vector's length.
	Size() int
	// NVals returns the mask's stored-element count.
	NVals() int

	maskIsNil() bool
	maskLowerWS(ws *Workspace) []uint64
	maskKnownEmpty() bool
	maskSparseIndices() ([]uint32, bool)
	maskNVals() int
}

// maskIsNil reports whether the typed pointer inside the interface is nil,
// so a (*Vector[bool])(nil) passed as a mask means "no mask" instead of a
// panic.
func (v *Vector[T]) maskIsNil() bool { return v == nil }

// maskLowerWS lowers the mask to packed words through the workspace (see
// maskLowerFor).
func (v *Vector[T]) maskLowerWS(ws *Workspace) []uint64 { return maskLowerFor(ws, v) }

// maskNVals reports the mask's stored-element count as planner evidence:
// sparse masks count their list, bitset and dense masks popcount their
// words (exact even after raw writes through BitsetView).
func (v *Vector[T]) maskNVals() int {
	if v.format == Sparse {
		return len(v.ind)
	}
	return core.BitsetCount(v.dwords)
}

// maskKnownEmpty reports, conservatively, that the mask certainly stores no
// elements. Only the sparse representation answers true: a bitset vector's
// nvals can be stale after raw BitsetView writes, so its words — not the
// counter — stay the source of truth for kernel masks.
func (v *Vector[T]) maskKnownEmpty() bool { return v.format == Sparse && len(v.ind) == 0 }

// maskSparseIndices exposes a sparse mask's index list without conversion.
func (v *Vector[T]) maskSparseIndices() ([]uint32, bool) {
	if v == nil || v.format != Sparse {
		return nil, false
	}
	return v.ind, true
}

// OpSpec is the declarative operation description: output vector, optional
// mask, optional descriptor. It is a small value — build one per call with
// Into and the fluent modifiers; there is nothing to reuse or pool.
type OpSpec[T comparable] struct {
	w      *Vector[T]
	mask   MaskVector
	desc   *Descriptor
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

// PullInput names the vector MxV's pull kernel reads in place of u — the
// paper's Optimization 4, operand reuse. The caller guarantees the product
// it keeps is the same either way. BFS passes its visited set, a superset of
// the frontier whose extra discoveries the ¬visited mask filters out. CC's
// unmasked relaxation passes its dense labels: every vertex whose label fell
// last round is in the frontier, so a non-frontier neighbour's candidate
// fails the strict < of the Select fold that follows. The planner prices
// pull at v's storage kind and settles v's format on a pull (a Dense v stays
// Dense); push ignores v. v must have u's size. Other operations ignore it.
func (s OpSpec[T]) PullInput(v *Vector[T]) OpSpec[T] { s.pullIn = v; return s }

// With sets the descriptor (mask complement, transpose, direction override,
// pinned workspace, plan sink, ...).
func (s OpSpec[T]) With(desc *Descriptor) OpSpec[T] { s.desc = desc; return s }

// ctxErr is CheckContext over the descriptor's Context: nil while live (or
// unset), a wrapped ErrCancelled once done. Allocation-free on the live path.
func (s OpSpec[T]) ctxErr() error { return CheckContext(s.desc.context()) }

// Apply computes w⟨mask⟩ = f(u) elementwise over u's pattern (GrB_apply).
// w may alias u; the unmasked aliased form runs in place.
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
//
// pred runs on the calling goroutine, exactly once per element of u the
// mask allows, in ascending index order, and may update caller state. A
// relaxation folds through it: SSSP's predicate lowers dist[i] to the
// candidate when the candidate improves it and reports whether it did, so
// one Select both picks the next active set and applies the update.
func (s OpSpec[T]) Select(pred func(i int, value T) bool, u *Vector[T]) error {
	return s.selectOp(pred, u)
}

// AssignVector merges u's stored elements into w where the mask allows:
// w(i) = u(i) wherever u has an element, leaving the rest of w intact
// (GrB_assign with a vector, replace=false).
func (s OpSpec[T]) AssignVector(u *Vector[T]) error {
	return s.assignVector(u)
}
