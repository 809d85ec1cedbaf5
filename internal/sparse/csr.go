// Package sparse provides the compressed sparse matrix substrate: the one
// edge-list→CSR builder (build.go: two stable counting passes, by column and
// then by row, sort each row and fold its duplicates without a comparison),
// CSR↔CSC transposition and the symmetry walk that makes it unnecessary for
// undirected graphs, and the degree statistics the harness reports (Table 3).
//
// Conventions: a CSR stores one sorted, duplicate-free index run per row.
// Column indices are uint32 (the paper's graphs top out well under 2³²
// vertices); row pointers are int so nnz may exceed 2³¹ on 64-bit hosts.
package sparse

import (
	"errors"
	"fmt"

	"pushpull/internal/par"
)

// CSR is a compressed-sparse-row matrix with values of type T. The zero
// value is an empty 0×0 matrix. A CSR with Rows=r and Cols=c viewed as CSC
// of its transpose is the same bytes, so the pull kernels take "CSR of Aᵀ".
type CSR[T any] struct {
	Rows, Cols int
	// Ptr has Rows+1 entries; row i occupies Ind[Ptr[i]:Ptr[i+1]].
	Ptr []int
	// Ind holds column indices, sorted ascending within each row.
	Ind []uint32
	// Val holds the value for each stored index, or is nil for a
	// pattern-only matrix (FromEdges, and so every generated or loaded
	// graph): kernels running a semiring form that does not need matrix
	// values (core.MulSecond, core.MulOne) never read it. Fill attaches
	// values to a pattern.
	Val []T
}

// NNZ reports the number of stored entries.
func (a *CSR[T]) NNZ() int { return len(a.Ind) }

// RowSpan returns the column indices and values of row i. A pattern-only
// CSR (nil Val) returns nil values.
func (a *CSR[T]) RowSpan(i int) ([]uint32, []T) {
	lo, hi := a.Ptr[i], a.Ptr[i+1]
	if a.Val == nil {
		return a.Ind[lo:hi], nil
	}
	return a.Ind[lo:hi], a.Val[lo:hi]
}

// RowLen reports the number of stored entries in row i.
func (a *CSR[T]) RowLen(i int) int { return a.Ptr[i+1] - a.Ptr[i] }

// Transpose returns Aᵀ as a new CSR (equivalently: the CSC view of A). It
// uses a counting sort over columns, so row runs in the result are sorted
// and duplicate-free whenever the input's are. A pattern-only matrix
// transposes to a pattern-only matrix.
func Transpose[T any](a *CSR[T]) *CSR[T] {
	t := &CSR[T]{
		Rows: a.Cols,
		Cols: a.Rows,
		Ptr:  make([]int, a.Cols+1),
		Ind:  make([]uint32, a.NNZ()),
	}
	if a.Val != nil {
		t.Val = make([]T, a.NNZ())
	}
	counts := make([]int, a.Cols)
	for _, c := range a.Ind {
		counts[c]++
	}
	sum := 0
	for c := 0; c < a.Cols; c++ {
		t.Ptr[c] = sum
		sum += counts[c]
	}
	t.Ptr[a.Cols] = sum
	next := append([]int(nil), t.Ptr[:a.Cols]...)
	for r := 0; r < a.Rows; r++ {
		for k := a.Ptr[r]; k < a.Ptr[r+1]; k++ {
			c := a.Ind[k]
			pos := next[c]
			t.Ind[pos] = uint32(r)
			if a.Val != nil {
				t.Val[pos] = a.Val[k]
			}
			next[c]++
		}
	}
	return t
}

// Symmetric reports whether A equals its transpose, values included (a
// pattern-only matrix has none to compare) — the condition under which one
// structure can serve as both CSR and CSC.
func Symmetric[T comparable](a *CSR[T]) bool {
	if a.Val == nil {
		return PatternSymmetric(a)
	}
	return symmetricWalk(a, func(k, t int) bool { return a.Val[k] == a.Val[t] })
}

// PatternSymmetric reports whether A's sparsity pattern equals its
// transpose's, whatever the values. Undirected graphs are
// pattern-symmetric.
func PatternSymmetric[T any](a *CSR[T]) bool {
	return symmetricWalk(a, nil)
}

// symmetricWalk is Transpose without the output arrays: it keeps only the
// counting sort's per-row write cursors, and at the position t where entry
// k = (r, c) *would* land in Aᵀ it requires A to already hold (c, r) — and,
// when sameVal is given, sameVal(k, t). Only entries above the diagonal are
// chased: their images are the below-diagonal entries, which a sorted row
// holds first, so row r is fully matched exactly when its cursor has reached
// its first entry at or past the diagonal by the time the walk arrives
// there. O(nnz) time with nnz/2 random probes, O(n) memory, and an
// asymmetric matrix usually fails within the first few rows.
func symmetricWalk[T any](a *CSR[T], sameVal func(k, t int) bool) bool {
	if a.Rows != a.Cols {
		return false
	}
	next := append([]int(nil), a.Ptr[:a.Rows]...)
	for r := 0; r < a.Rows; r++ {
		k, end := a.Ptr[r], a.Ptr[r+1]
		for k < end && a.Ind[k] < uint32(r) {
			k++
		}
		if next[r] != k {
			return false // a below-diagonal entry of row r has no mirror
		}
		for ; k < end; k++ {
			c := a.Ind[k]
			if c == uint32(r) {
				continue
			}
			t := next[c]
			if t == a.Ptr[c+1] || a.Ind[t] != uint32(r) || (sameVal != nil && !sameVal(k, t)) {
				return false
			}
			next[c] = t + 1
		}
	}
	return true
}

// MaxRowLen returns the largest row population — the "max degree" column of
// Table 3 when A is an adjacency matrix.
func MaxRowLen[T any](a *CSR[T]) int {
	maxLen := 0
	for i := 0; i < a.Rows; i++ {
		if l := a.RowLen(i); l > maxLen {
			maxLen = l
		}
	}
	return maxLen
}

// AvgRowLen returns the mean row population d, the quantity the paper's
// cost model (Table 1) and direction heuristic (Section 6.3) call the
// average number of nonzeroes per row.
func AvgRowLen[T any](a *CSR[T]) float64 {
	if a.Rows == 0 {
		return 0
	}
	return float64(a.NNZ()) / float64(a.Rows)
}

// Validate checks CSR structural invariants: monotone Ptr, sorted
// duplicate-free rows, in-range indices, and one value per index unless the
// matrix is pattern-only (nil Val). It is used by tests and by the Matrix
// Market loader.
func Validate[T any](a *CSR[T]) error {
	if len(a.Ptr) != a.Rows+1 {
		return fmt.Errorf("sparse: Ptr length %d, want %d", len(a.Ptr), a.Rows+1)
	}
	if a.Ptr[0] != 0 || a.Ptr[a.Rows] != len(a.Ind) {
		return errors.New("sparse: Ptr endpoints disagree with Ind length")
	}
	if a.Val != nil && len(a.Ind) != len(a.Val) {
		return fmt.Errorf("sparse: %d indices but %d values", len(a.Ind), len(a.Val))
	}
	for r := 0; r < a.Rows; r++ {
		if a.Ptr[r] > a.Ptr[r+1] {
			return fmt.Errorf("sparse: Ptr not monotone at row %d", r)
		}
		for k := a.Ptr[r]; k < a.Ptr[r+1]; k++ {
			if int(a.Ind[k]) >= a.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", a.Ind[k], r)
			}
			if k > a.Ptr[r] && a.Ind[k-1] >= a.Ind[k] {
				return fmt.Errorf("sparse: row %d not strictly sorted at offset %d", r, k)
			}
		}
	}
	return nil
}

// Fill returns A's pattern with every stored entry holding x. Only the
// values are new: the result shares A's immutable Ptr and Ind (as
// generate.WeightedCopy does), so it costs one Val array, not three. It is
// how the callers that do read matrix values — the Table 2 baseline, the
// Table 1 microbenchmarks — attach them to a pattern-only graph.
func Fill[T, U any](a *CSR[T], x U) *CSR[U] {
	out := &CSR[U]{Rows: a.Rows, Cols: a.Cols, Ptr: a.Ptr, Ind: a.Ind, Val: make([]U, a.NNZ())}
	par.For(len(out.Val), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Val[i] = x
		}
	})
	return out
}
