package graphblas

// This file holds the matrix and reduction operations that do not take the
// vector pipeline (opspec.go, execute.go).

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
