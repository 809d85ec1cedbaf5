package graphblas

import (
	"fmt"

	"pushpull/internal/core"
)

// This file holds the positional operation signatures, kept as thin
// deprecated wrappers over the unified OpSpec pipeline (opspec.go,
// execute.go) so existing call sites compile unchanged, plus the matrix
// and reduction operations that do not take the vector pipeline.

// EWiseMult is the positional form of OpSpec.EWiseMult (unmasked,
// non-accumulating).
//
// Deprecated: use Into(w).EWiseMult(op, u, v), which also accepts a mask,
// accumulator and descriptor.
func EWiseMult[T comparable](w *Vector[T], op BinaryOp[T], u, v *Vector[T]) error {
	return Into(w).EWiseMult(op, u, v)
}

// EWiseAdd is the positional form of OpSpec.EWiseAdd (unmasked,
// non-accumulating).
//
// Deprecated: use Into(w).EWiseAdd(op, u, v), which also accepts a mask,
// accumulator and descriptor.
func EWiseAdd[T comparable](w *Vector[T], op BinaryOp[T], u, v *Vector[T]) error {
	return Into(w).EWiseAdd(op, u, v)
}

// conformEWise checks the three-operand dimension agreement of the eWise
// ops.
func conformEWise[T comparable](w, u, v *Vector[T]) error {
	if w == nil || u == nil || v == nil {
		return fmt.Errorf("%w: nil operand", ErrInvalidValue)
	}
	if u.Size() != v.Size() || w.Size() != u.Size() {
		return fmt.Errorf("%w: eWise sizes %d, %d, %d", ErrDimensionMismatch, w.Size(), u.Size(), v.Size())
	}
	return nil
}

// Apply is the positional form of OpSpec.Apply. w may alias u.
//
// Deprecated: use Into(w).Apply(f, u), which also accepts a mask,
// accumulator and descriptor.
func Apply[T comparable](w *Vector[T], f func(T) T, u *Vector[T]) error {
	return Into(w).Apply(f, u)
}

// ApplyIndexed is the positional form of OpSpec.ApplyIndexed. w may alias
// u.
//
// Deprecated: use Into(w).ApplyIndexed(f, u), which also accepts a mask,
// accumulator and descriptor.
func ApplyIndexed[T comparable](w *Vector[T], f func(i int, x T) T, u *Vector[T]) error {
	return Into(w).ApplyIndexed(f, u)
}

// AssignVector is the positional form of OpSpec.AssignVector: w(i) = u(i)
// wherever u has an element, leaving the rest of w intact.
//
// Deprecated: use Into(w).AssignVector(u), which also accepts a mask,
// accumulator and descriptor.
func AssignVector[T comparable](w *Vector[T], u *Vector[T]) error {
	return Into(w).AssignVector(u)
}

// Select is the positional form of OpSpec.Select. w may alias u.
//
// Deprecated: use Into(w).Select(pred, u), which also accepts a mask,
// accumulator and descriptor.
func Select[T comparable](w *Vector[T], pred func(i int, value T) bool, u *Vector[T]) error {
	return Into(w).Select(pred, u)
}

// Extract is the positional form of OpSpec.Extract.
//
// Deprecated: use Into(w).Extract(u, indices), which also accepts a mask,
// accumulator and descriptor.
func Extract[T comparable](w *Vector[T], u *Vector[T], indices []uint32) error {
	return Into(w).Extract(u, indices)
}

// AssignScalar is the positional form of OpSpec.AssignScalar, the masked
// scalar assign of Algorithm 1 Line 7 (GrB_assign with a scalar): for
// every index the effective mask allows, set w(i) = value; all other
// positions keep their current contents (replace=false semantics). BFS
// uses it as v⟨f⟩ = depth.
//
// Deprecated: use Into(w).Mask(mask).With(desc).AssignScalar(value), which
// also accepts an accumulator and a nil mask (assign everywhere).
func AssignScalar[T, M comparable](w *Vector[T], mask *Vector[M], value T, desc *Descriptor) error {
	if w == nil || mask == nil {
		return fmt.Errorf("%w: nil operand", ErrInvalidValue)
	}
	return Into(w).Mask(mask).With(desc).AssignScalar(value)
}

// Transpose returns Aᵀ as a new matrix. Because Matrix already stores both
// orientations this is O(1): the views swap.
func Transpose[T comparable](a *Matrix[T]) *Matrix[T] {
	if a.Symmetric() {
		return a
	}
	return &Matrix[T]{csr: a.csc, csc: a.csr, shards: &shardCache{}}
}

// Reduce folds u's stored values with the monoid (GrB_reduce to scalar).
func Reduce[T comparable](m Monoid[T], u *Vector[T]) T {
	acc := m.Identity
	u.Iterate(func(_ int, x T) bool {
		acc = m.Op(acc, x)
		return m.Terminal == nil || acc != *m.Terminal
	})
	return acc
}

// MxM computes the masked matrix-matrix product C⟨M⟩ = A ⊕.⊗ B with the
// output pattern restricted to the mask matrix's pattern — the paper's
// generalization of output-sparsity masking beyond matvec (Section 5.6),
// as used by triangle counting. The unmasked product is deliberately not
// offered: computing C = A·B without an output mask is exactly the
// asymptotic blow-up masking exists to avoid.
func MxM[T comparable](maskPattern *Matrix[T], s Semiring[T], a, b *Matrix[T], desc *Descriptor) (*Matrix[T], error) {
	if maskPattern == nil || a == nil || b == nil {
		return nil, fmt.Errorf("%w: nil operand", ErrInvalidValue)
	}
	if a.NCols() != b.NRows() {
		return nil, fmt.Errorf("%w: %d×%d times %d×%d", ErrDimensionMismatch, a.NRows(), a.NCols(), b.NRows(), b.NCols())
	}
	if maskPattern.NRows() != a.NRows() || maskPattern.NCols() != b.NCols() {
		return nil, fmt.Errorf("%w: mask %d×%d for %d×%d product", ErrDimensionMismatch,
			maskPattern.NRows(), maskPattern.NCols(), a.NRows(), b.NCols())
	}
	// ⊗(a, b): the general form reads both operands' values, the second
	// form B's alone.
	form := mulForm(s, desc)
	if (a.valueless() && form == MulGeneral) || (b.valueless() && form != MulOne) {
		return nil, fmt.Errorf("%w: %s", ErrInvalidValue, errValueless)
	}
	mc := maskPattern.CSR()
	prod := core.MxMMasked(a.CSR(), b.CSR(), mc.Ptr, mc.Ind, toCoreSR(s), desc.coreOpts(desc.workspace()))
	return NewMatrixFromCSR(prod), nil
}
