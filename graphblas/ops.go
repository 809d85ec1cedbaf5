package graphblas

import (
	"fmt"

	"pushpull/internal/core"
)

// This file holds the matrix and reduction operations that do not take the
// vector pipeline (opspec.go, execute.go).

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
