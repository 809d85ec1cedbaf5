package graphblas

import (
	"fmt"

	"pushpull/internal/sparse"
)

// Matrix is a GraphBLAS matrix over element type T. It keeps the matrix in
// both row-major (CSR) and column-major (CSC) compressed form, because the
// push direction gathers columns while the pull direction scans rows — the
// paper's function-signature table in Section 6.3 requires both
// orientations to be available to the runtime. For pattern-symmetric
// matrices (undirected graphs) the two views share storage. A Matrix holds
// no mutable state: it is immutable from construction on.
type Matrix[T comparable] struct {
	csr *sparse.CSR[T]
	csc *sparse.CSR[T] // csr of the transpose; may alias csr
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
// the matrix equals its transpose — pattern and values — the CSR doubles as
// the CSC view; only otherwise is the transpose materialised. A CSR whose
// builder certified it (csr.KnownSymmetric: a mirrored sparse.FromEdges,
// generate.WeightedCopy of a symmetric pattern) is taken at its word; any
// other is decided by sparse.Symmetric's O(n)-memory walk, a serial pass
// that takes about 40 ms on the 3.7M-entry benchmark graph. A CSR with a nil
// Val makes a pattern-only matrix (every generate.* and mmio.ReadPattern
// graph), under PatternAs's rules.
func NewMatrixFromCSR[T comparable](csr *sparse.CSR[T]) *Matrix[T] {
	m := &Matrix[T]{csr: csr, csc: csr}
	if !csr.KnownSymmetric && !sparse.Symmetric(csr) {
		m.csc = sparse.Transpose(csr)
	}
	return m
}

// PatternAs returns an O(1) view of a Boolean pattern matrix typed for
// element domain T: it shares the source's Ptr/Ind arrays, its CSR≡CSC
// aliasing (so no symmetry walk and no transpose), and stores no values at
// all. Only operations that never read matrix values accept it — MxV under
// a MulSecond or MulOne semiring (or Descriptor.StructureOnly); a
// general-form multiply returns ErrInvalidValue, and RowView reports nil
// values.
func PatternAs[T comparable](a *Matrix[bool]) *Matrix[T] {
	retype := func(p *sparse.CSR[bool]) *sparse.CSR[T] {
		return &sparse.CSR[T]{Rows: p.Rows, Cols: p.Cols, Ptr: p.Ptr, Ind: p.Ind}
	}
	m := &Matrix[T]{csr: retype(a.csr)}
	m.csc = m.csr
	if !a.Symmetric() {
		m.csc = retype(a.csc)
	}
	return m
}

// ValuedAs is PatternAs with values attached: the same shared Ptr/Ind and
// CSR≡CSC aliasing, plus one new array holding x for every
// stored entry — which serves both orientations, a constant being its own
// transpose. It is how the callers that do read matrix values (BFS under
// DisableStructureOnly, the Table 1 microbenchmarks) get them from a
// pattern-only graph; the source stays pattern-only.
func ValuedAs[T comparable](a *Matrix[bool], x T) *Matrix[T] {
	m := PatternAs[T](a)
	m.csr.Val = sparse.Fill(a.csr, x).Val
	m.csc.Val = m.csr.Val
	return m
}

// Relocate returns a copy of a made by move, called once per orientation a
// stores (once when a is symmetric) to copy it. The copy keeps a's CSR≡CSC
// aliasing, so it is Symmetric() exactly when a is, with no symmetry walk
// and no transpose: how a server moves a graph into memory it manages.
func Relocate[T comparable](a *Matrix[T], move func(*sparse.CSR[T]) *sparse.CSR[T]) *Matrix[T] {
	m := &Matrix[T]{csr: move(a.csr)}
	m.csc = m.csr
	if !a.Symmetric() {
		m.csc = move(a.csc)
	}
	return m
}

// valueless reports whether the matrix stores entries without values — a
// non-empty pattern-only matrix or PatternAs view.
func (m *Matrix[T]) valueless() bool { return m.csr.Val == nil && m.csr.NNZ() > 0 }

// Transpose returns Aᵀ as a new matrix. Because Matrix already stores both
// orientations this is O(1): the views swap.
func Transpose[T comparable](a *Matrix[T]) *Matrix[T] {
	if a.Symmetric() {
		return a
	}
	return &Matrix[T]{csr: a.csc, csc: a.csr}
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
// A pattern-only matrix stores no value to return: a present entry is
// ErrInvalidValue there, so the two errors still tell present from absent.
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
	if lo == len(ind) || ind[lo] != uint32(j) {
		return zero, ErrNoValue
	}
	if val == nil {
		return zero, fmt.Errorf("%w: ExtractElement on a pattern-only matrix", ErrInvalidValue)
	}
	return val[lo], nil
}

// RowView exposes row i of the CSR view (indices and values; nil values for
// a pattern-only matrix). The returned slices alias internal storage and
// must not be modified.
func (m *Matrix[T]) RowView(i int) ([]uint32, []T) { return m.csr.RowSpan(i) }

// CSR exposes the underlying row-major structure for internal consumers
// (kernels, the experiment harness). Treat as read-only.
func (m *Matrix[T]) CSR() *sparse.CSR[T] { return m.csr }

// CSC exposes the underlying column-major structure (the CSR of Aᵀ).
// Treat as read-only.
func (m *Matrix[T]) CSC() *sparse.CSR[T] { return m.csc }
