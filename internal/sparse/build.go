package sparse

import (
	"fmt"
	"slices"
	"sort"

	"pushpull/internal/par"
)

// PackEdge packs a coordinate as row<<32|col, the element of the edge lists
// FromEdges consumes: one word per edge, so a generator holds one slice
// instead of three.
func PackEdge(row, col uint32) uint64 { return uint64(row)<<32 | uint64(col) }

// FromEdges builds a pattern-only matrix (nil Val) from packed edges (see
// PackEdge): every distinct (row, col) becomes one stored entry. With mirror
// each edge also stores its transpose, so an undirected graph is handed over
// one direction per edge; the matrix must then be square. edges is not
// modified.
func FromEdges[T any](nrows, ncols int, edges []uint64, mirror bool) (*CSR[T], error) {
	return build[T](nrows, ncols, edges, nil, mirror, nil)
}

// FromCOO builds a CSR from unordered coordinate triples, folding duplicate
// (row, col) entries with dup in input order (pass nil to keep the last
// write). Inputs are not modified.
func FromCOO[T any](nrows, ncols int, rows, cols []uint32, vals []T, dup func(T, T) T) (*CSR[T], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("sparse: triple slices disagree: %d rows, %d cols, %d vals",
			len(rows), len(cols), len(vals))
	}
	edges := make([]uint64, len(rows))
	for i, r := range rows {
		edges[i] = PackEdge(r, cols[i])
	}
	if vals == nil {
		vals = []T{} // non-nil: build carries (empty) values
	}
	return build(nrows, ncols, edges, vals, false, dup)
}

// build is the one edge-list→CSR path: count entries per row, prefix-sum the
// counts into Ptr, scatter (which leaves each row's entries in input order),
// sort and deduplicate every row in place — in parallel over rows — and
// compact. vals is nil for a pattern (Val stays nil) or parallel to edges.
// Beyond the result it allocates one cursor per row and, only when the list
// held duplicates, the scatter arrays the result is compacted out of.
func build[T any](nrows, ncols int, edges []uint64, vals []T, mirror bool, dup func(T, T) T) (*CSR[T], error) {
	if nrows < 0 || ncols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d×%d", nrows, ncols)
	}
	if mirror && nrows != ncols {
		return nil, fmt.Errorf("sparse: cannot mirror edges of a non-square %d×%d matrix", nrows, ncols)
	}
	ptr := make([]int, nrows+1)
	for _, e := range edges {
		r, c := uint32(e>>32), uint32(e)
		if int(r) >= nrows || int(c) >= ncols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %d×%d", r, c, nrows, ncols)
		}
		ptr[r+1]++
		if mirror {
			ptr[c+1]++
		}
	}
	for i := 0; i < nrows; i++ {
		ptr[i+1] += ptr[i]
	}
	ind := make([]uint32, ptr[nrows])
	var val []T
	if vals != nil {
		val = make([]T, ptr[nrows])
	}
	// next[i] is row i's write cursor while scattering, then its
	// deduplicated length.
	next := append([]int(nil), ptr[:nrows]...)
	for k, e := range edges {
		r, c := uint32(e>>32), uint32(e)
		ind[next[r]] = c
		if val != nil {
			val[next[r]] = vals[k]
		}
		next[r]++
		if mirror {
			ind[next[c]] = r
			if val != nil {
				val[next[c]] = vals[k]
			}
			next[c]++
		}
	}
	const rowGrain = 256 // rows per chunk: small enough to balance skewed degrees
	par.For(nrows, rowGrain, func(lo, hi int) {
		var pairs rowPairs[T] // one sorter per chunk, re-aimed at each row
		for i := lo; i < hi; i++ {
			pairs.ind = ind[ptr[i]:ptr[i+1]]
			if val != nil {
				pairs.val = val[ptr[i]:ptr[i+1]]
			}
			next[i] = pairs.sortDedup(dup)
		}
	})
	// Close the gaps the duplicates left by copying the rows into arrays of
	// exactly the deduplicated size: a matrix that lives as long as its
	// server should not carry its duplicates' slots along. next turns from
	// lengths into the rows' final offsets; a list without duplicates keeps
	// the scatter arrays as they are.
	kept := par.ExclusiveScan(next)
	if kept < len(ind) {
		from, fromVal := ind, val
		ind = make([]uint32, kept)
		if val != nil {
			val = make([]T, kept)
		}
		par.For(nrows, rowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				end := kept
				if i+1 < nrows {
					end = next[i+1]
				}
				n := end - next[i]
				copy(ind[next[i]:end], from[ptr[i]:ptr[i]+n])
				if val != nil {
					copy(val[next[i]:end], fromVal[ptr[i]:ptr[i]+n])
				}
				ptr[i] = next[i]
			}
		})
		ptr[nrows] = kept
	}
	return &CSR[T]{Rows: nrows, Cols: ncols, Ptr: ptr, Ind: ind, Val: val}, nil
}

// rowPairs is one row's (index, value) run during build; val is nil for a
// pattern. It implements sort.Interface so a valued row can be sorted
// stably, which is what keeps duplicates in input order for dup.
type rowPairs[T any] struct {
	ind []uint32
	val []T
}

func (p *rowPairs[T]) Len() int           { return len(p.ind) }
func (p *rowPairs[T]) Less(i, j int) bool { return p.ind[i] < p.ind[j] }
func (p *rowPairs[T]) Swap(i, j int) {
	p.ind[i], p.ind[j] = p.ind[j], p.ind[i]
	p.val[i], p.val[j] = p.val[j], p.val[i]
}

// sortDedup sorts the row by index and folds runs of equal indices into
// their first slot, in input order; it returns the number of entries kept.
func (p *rowPairs[T]) sortDedup(dup func(T, T) T) int {
	ind, val := p.ind, p.val
	if len(ind) < 2 {
		return len(ind)
	}
	if val == nil {
		slices.Sort(ind)
	} else {
		sort.Stable(p)
	}
	w := 0
	for k := 1; k < len(ind); k++ {
		if ind[k] != ind[w] {
			w++
			ind[w] = ind[k]
			if val != nil {
				val[w] = val[k]
			}
		} else if val != nil {
			if dup != nil {
				val[w] = dup(val[w], val[k])
			} else {
				val[w] = val[k]
			}
		}
	}
	return w + 1
}
