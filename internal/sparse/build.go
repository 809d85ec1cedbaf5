package sparse

import (
	"fmt"

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
// modified. A mirrored build is certified symmetric (CSR.KnownSymmetric).
func FromEdges[T any](nrows, ncols int, edges []uint64, mirror bool) (*CSR[T], error) {
	return build[T](nrows, ncols, edges, nil, mirror, nil, par.MaxWorkers())
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
	return build(nrows, ncols, edges, vals, false, dup, par.MaxWorkers())
}

// build is the one edge-list→CSR path: two stable counting passes and no
// comparison. Pass 1 buckets every entry (a mirrored edge is two) by column,
// keeping its row, in input order. Pass 2 walks the buckets in column order
// and appends each entry to its row: rows come out sorted, and a duplicate of
// (row, col), always in bucket col, lands on the entry it repeats. vals is nil
// for a pattern (Val stays nil) or parallel to edges. Each pass splits up to
// `workers` ways (spanCount); beyond the result build allocates a 4-byte word
// per entry (plus its value, if any) and per span a counter per column and row.
func build[T any](nrows, ncols int, edges []uint64, vals []T, mirror bool, dup func(T, T) T, workers int) (*CSR[T], error) {
	if nrows < 0 || ncols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d×%d", nrows, ncols)
	}
	if mirror && nrows != ncols {
		return nil, fmt.Errorf("sparse: cannot mirror edges of a non-square %d×%d matrix", nrows, ncols)
	}
	entries := len(edges)
	if mirror {
		entries *= 2
	}

	// Pass 1, over contiguous spans of the edge list. at[s*ncols+c] counts
	// span s's entries in column c, then becomes where the next of them goes:
	// bucket c holds span 0's entries, then span 1's, each in input order.
	spans := spanCount(workers, entries, ncols)
	at := make([]int, spans*ncols)
	bad := make([]int, spans) // 1 + the span's first out-of-range edge, 0 without one
	forSpans(spans, func(s int) {
		lo, count := s*len(edges)/spans, at[s*ncols:(s+1)*ncols]
		for k, e := range edges[lo : (s+1)*len(edges)/spans] {
			r, c := uint32(e>>32), uint32(e)
			if int(r) >= nrows || int(c) >= ncols {
				bad[s] = lo + k + 1
				return
			}
			count[c]++
			if mirror {
				count[r]++
			}
		}
	})
	for _, k := range bad {
		if k > 0 {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %d×%d", uint32(edges[k-1]>>32), uint32(edges[k-1]), nrows, ncols)
		}
	}
	total := 0
	for c := 0; c < ncols; c++ {
		for i := c; i < len(at); i += ncols {
			total, at[i] = total+at[i], total
		}
	}
	byCol := make([]uint32, entries) // the entries' rows, bucketed by column
	var byColVal []T
	if vals != nil {
		byColVal = make([]T, entries)
	}
	forSpans(spans, func(s int) {
		lo, next := s*len(edges)/spans, at[s*ncols:(s+1)*ncols]
		for k, e := range edges[lo : (s+1)*len(edges)/spans] {
			r, c := uint32(e>>32), uint32(e)
			p := next[c]
			next[c] = p + 1
			byCol[p] = r
			if vals != nil {
				byColVal[p] = vals[lo+k]
			}
			if mirror {
				p := next[r]
				next[r] = p + 1
				byCol[p] = c
				if vals != nil {
					byColVal[p] = vals[lo+k]
				}
			}
		}
	})
	colEnd := at[(spans-1)*ncols:] // the last span's cursors stopped at the buckets' ends

	// Pass 2, over column ranges holding about equal shares of the entries. A
	// (row, col) pair falls in one range and lower ranges hold a row's lower
	// columns, so each range counts, then fills, its own stretch of every row.
	ranges := spanCount(workers, entries, nrows)
	cut := make([]int, ranges+1) // range g is columns [cut[g], cut[g+1])
	for g, c := 1, 0; g < ranges; g++ {
		for c < ncols && colEnd[c] < g*entries/ranges {
			c++
		}
		cut[g] = c
	}
	cut[ranges] = ncols
	slots := make([]rowSlot, ranges*nrows)
	ptr := make([]int, nrows+1)
	// sweep visits the entries in bucket order. Without ind it counts the
	// distinct ones per row; with ind it writes each to its row's last filled
	// slot, which a duplicate shares with the entry it repeats: the column is
	// rewritten as it was (a branch would mispredict), the value folded.
	sweep := func(ind []uint32, val []T) {
		forSpans(ranges, func(g int) {
			slot := slots[g*nrows : (g+1)*nrows]
			k := 0
			if cut[g] > 0 {
				k = colEnd[cut[g]-1]
			}
			for c := cut[g]; c < cut[g+1]; c++ {
				tag := uint32(c) + 1
				for end := colEnd[c]; k < end; k++ {
					r := byCol[k]
					sl := slot[r]
					var first uint32
					if sl.seen != tag {
						first = 1
					}
					sl = rowSlot{seen: tag, fill: sl.fill + first}
					slot[r] = sl
					if ind == nil {
						continue
					}
					p := ptr[r] + int(sl.fill) - 1
					ind[p] = uint32(c)
					if val != nil && (first == 1 || dup == nil) {
						val[p] = byColVal[k]
					} else if val != nil {
						val[p] = dup(val[p], byColVal[k])
					}
				}
			}
		})
	}
	sweep(nil, nil)
	// Counts become offsets into the row; seen is wiped for the second sweep.
	for r := range ptr[:nrows] {
		for i := r; i < len(slots); i += nrows {
			ptr[r], slots[i] = ptr[r]+int(slots[i].fill), rowSlot{fill: uint32(ptr[r])}
		}
	}
	ind := make([]uint32, par.ExclusiveScan(ptr))
	var val []T
	if vals != nil {
		val = make([]T, len(ind))
	}
	sweep(ind, val)
	return &CSR[T]{Rows: nrows, Cols: ncols, Ptr: ptr, Ind: ind, Val: val, KnownSymmetric: mirror}, nil
}

// spanCount is how many ways a pass over entries splits when each span carries
// n 8-byte counters: one per worker, but the counters stay within a quarter of
// the 4-byte-per-entry array, so the transient is the same at any pool width.
func spanCount(workers, entries, n int) int {
	return max(1, min(workers, entries/(8*max(n, 1))))
}

// forSpans runs body(s) for every s in [0, spans), in parallel.
func forSpans(spans int, body func(s int)) {
	par.For(spans, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			body(s)
		}
	})
}

// rowSlot is one column range's view of one row in pass 2: 1 + the last column
// met there (0: none yet; column 2³²−1 cannot occur, its counters alone would
// take 32 GB) and how many distinct ones so far.
type rowSlot struct{ seen, fill uint32 }
