package graphblas

import "fmt"

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
	return &Matrix[T]{csr: a.csc, csc: a.csr}
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
