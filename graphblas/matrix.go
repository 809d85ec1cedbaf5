package graphblas

import (
	"fmt"
	"sync"

	"pushpull/internal/core"
	"pushpull/internal/sparse"
)

// Matrix is a GraphBLAS matrix over element type T. It keeps the matrix in
// both row-major (CSR) and column-major (CSC) compressed form, because the
// push direction gathers columns while the pull direction scans rows — the
// paper's function-signature table in Section 6.3 requires both
// orientations to be available to the runtime. For pattern-symmetric
// matrices (undirected graphs) the two views share storage.
type Matrix[T comparable] struct {
	csr *sparse.CSR[T]
	csc *sparse.CSR[T] // csr of the transpose; may alias csr

	// Shard-boundary cache for range-sharded MxV (Descriptor.Shards):
	// edge-balanced output ranges plus the destination cut table into the
	// push-side CSC, computed once per (shard count, orientation) and
	// derived purely from the immutable Ptr/Ind arrays. Guarded by
	// shardMu because concurrent read-only operations may share a matrix.
	shardMu   sync.Mutex
	shardSets map[shardKey]*core.ShardSet
}

// shardKey keys the shard-boundary cache: the requested shard count and
// whether the operation multiplies by Aᵀ (which swaps which view is the
// output side).
type shardKey struct {
	shards     int
	transposed bool
}

// shardSet returns the cached edge-balanced shard boundaries and CSC cut
// table for the given shard count and orientation, building them on first
// use. Returns nil when the matrix cannot be sharded (degenerate dims, or
// nnz beyond the int32 cut-table range) — callers fall back to the
// unsharded pipeline. Negative results are cached too.
func (m *Matrix[T]) shardSet(shards int, transposed bool) *core.ShardSet {
	key := shardKey{shards, transposed}
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	if ss, ok := m.shardSets[key]; ok {
		return ss
	}
	rowG, colG := m.csr, m.csc
	if transposed {
		rowG, colG = colG, rowG
	}
	ss := core.BuildShardSet(rowG.Ptr, colG.Ptr, colG.Ind, shards)
	if m.shardSets == nil {
		m.shardSets = make(map[shardKey]*core.ShardSet, 2)
	}
	m.shardSets[key] = ss
	return ss
}

// PurgeShardCache drops the cached shard boundaries and cut tables; later
// sharded operations rebuild them on demand, so purging is always safe.
// The serving layer calls this when a retired snapshot's last reference
// releases, so a dead generation's derived structures free even while the
// Matrix itself is still reachable through a static graph source.
func (m *Matrix[T]) PurgeShardCache() {
	m.shardMu.Lock()
	m.shardSets = nil
	m.shardMu.Unlock()
}

// NewMatrixFromCOO builds a matrix from coordinate triples, folding
// duplicates with dup (last write wins if nil).
func NewMatrixFromCOO[T comparable](nrows, ncols int, rows, cols []uint32, vals []T, dup BinaryOp[T]) (*Matrix[T], error) {
	var dupFn func(T, T) T
	if dup != nil {
		dupFn = dup
	}
	csr, err := sparse.FromCOO(nrows, ncols, rows, cols, vals, dupFn)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidValue, err)
	}
	return NewMatrixFromCSR(csr), nil
}

// NewMatrixFromCSR wraps an existing CSR structure (taking ownership). If
// the matrix equals its transpose — pattern and values, decided by
// sparse.Symmetric's O(n)-memory walk — the CSR doubles as the CSC view;
// only otherwise is the transpose materialised.
func NewMatrixFromCSR[T comparable](csr *sparse.CSR[T]) *Matrix[T] {
	m := &Matrix[T]{csr: csr, csc: csr}
	if !sparse.Symmetric(csr) {
		m.csc = sparse.Transpose(csr)
	}
	return m
}

// NRows returns the number of rows.
func (m *Matrix[T]) NRows() int { return m.csr.Rows }

// NCols returns the number of columns.
func (m *Matrix[T]) NCols() int { return m.csr.Cols }

// NVals returns the number of stored entries.
func (m *Matrix[T]) NVals() int { return m.csr.NNZ() }

// Symmetric reports whether the CSR and CSC views share storage, i.e. the
// matrix equals its transpose.
func (m *Matrix[T]) Symmetric() bool { return m.csc == m.csr }

// AvgDegree returns the mean number of stored entries per row — the d of
// the paper's cost model and direction heuristic.
func (m *Matrix[T]) AvgDegree() float64 { return sparse.AvgRowLen(m.csr) }

// MaxDegree returns the largest row population.
func (m *Matrix[T]) MaxDegree() int { return sparse.MaxRowLen(m.csr) }

// ExtractElement returns A(i, j), or ErrNoValue if that position is empty.
func (m *Matrix[T]) ExtractElement(i, j int) (T, error) {
	var zero T
	if i < 0 || i >= m.NRows() || j < 0 || j >= m.NCols() {
		return zero, fmt.Errorf("%w: (%d,%d) in %d×%d matrix", ErrIndexOutOfBounds, i, j, m.NRows(), m.NCols())
	}
	ind, val := m.csr.RowSpan(i)
	lo, hi := 0, len(ind)
	for lo < hi {
		mid := (lo + hi) / 2
		if ind[mid] < uint32(j) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ind) && ind[lo] == uint32(j) {
		return val[lo], nil
	}
	return zero, ErrNoValue
}

// RowView exposes row i of the CSR view (indices and values). The returned
// slices alias internal storage and must not be modified.
func (m *Matrix[T]) RowView(i int) ([]uint32, []T) { return m.csr.RowSpan(i) }

// ColView exposes column j via the CSC view. The returned slices alias
// internal storage and must not be modified.
func (m *Matrix[T]) ColView(j int) ([]uint32, []T) { return m.csc.RowSpan(j) }

// CSR exposes the underlying row-major structure for internal consumers
// (kernels, the experiment harness). Treat as read-only.
func (m *Matrix[T]) CSR() *sparse.CSR[T] { return m.csr }

// CSC exposes the underlying column-major structure (the CSR of Aᵀ).
// Treat as read-only.
func (m *Matrix[T]) CSC() *sparse.CSR[T] { return m.csc }
