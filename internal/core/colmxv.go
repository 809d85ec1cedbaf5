package core

import (
	"pushpull/internal/merge"
	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// ColMxv computes the unmasked column-based matvec w = G·u (the paper's
// SpMSpV): w = ⊕_{i : u(i)≠0} G(:,i) ⊗ u(i). cscG is the CSC of G — a CSR
// whose row i stores column i of G. The input is a format-agnostic view:
// sparse views feed the gather directly, bitset and dense views are
// compacted into an index list in workspace scratch first. The output is
// sparse, sorted and duplicate-free.
//
// With a pinned Opts.Ws the returned slices alias workspace storage and
// stay valid only until the workspace's next kernel call — the pattern
// iterative algorithms rely on, installing the result into a vector before
// the next matvec. Without a workspace the call runs on a fresh arena and
// the result is caller-owned.
//
// Cost (Table 1 row 3): only columns selected by the input frontier are
// touched — O(d·nnz(f)·⌈log₂₅₆ M⌉) with the radix sort of Algorithm 3: the
// digit passes depend on M alone, so the log factor is constant in nnz(f)
// (Section 3.1 states the cost as O(d·nnz(f)·log nnz(f)) for a heap merge).
func ColMxv[T comparable](cscG *sparse.CSR[T], u VecView[T], sr SR[T], opts Opts) ([]uint32, []T) {
	return colMxvView(cscG, u, MaskView{}, false, sr, opts)
}

// ColMaskedMxv computes the masked column-based matvec w = m .⊙ (G·u). As
// the paper observes (Section 3.2), the mask cannot reduce the work of the
// push phase — it is applied as a post-filter after the merge, so the cost
// matches the unmasked variant (Table 1 row 4). Two degenerate masks skip
// the filter: a known-empty complemented mask allows everything (the
// common first iterations of BFS, where ¬visited is almost everything),
// and a known-empty plain mask allows nothing.
func ColMaskedMxv[T comparable](cscG *sparse.CSR[T], u VecView[T], mask MaskView, sr SR[T], opts Opts) ([]uint32, []T) {
	return colMxvView(cscG, u, mask, true, sr, opts)
}

func colMxvView[T comparable](cscG *sparse.CSR[T], u VecView[T], mask MaskView, masked bool, sr SR[T], opts Opts) ([]uint32, []T) {
	if masked && mask.KnownEmpty {
		if !mask.Scmp {
			return nil, nil // empty mask allows nothing
		}
		masked = false // empty complement allows everything: skip the filter
	}
	a := arenaFor[T](opts.Ws)
	uInd, uVal := pushOperands(a, u, sr)
	wInd, wVal := colMxvRadix(cscG, uInd, uVal, sr.resolve(opts), opts, a)
	if masked {
		// Post-filter by the effective mask (Algorithm 3 Lines 17-24),
		// compacting in place over the workspace-owned merge output — no
		// fresh storage is involved.
		a.count.MaskAccesses += int64(len(wInd))
		out := 0
		for k, ind := range wInd {
			if mask.Allows(int(ind)) {
				wInd[out] = ind
				wVal[out] = wVal[k]
				out++
			}
		}
		wInd, wVal = wInd[:out], wVal[:out]
	}
	return wInd, wVal
}

// ColMxvBitmap is the push kernel's sort-free output path: instead of
// gathering, radix-sorting and segment-reducing into a sparse list, it
// scatters each product directly into caller-provided bitmap storage
// (wVal/wPresent, length cscG.Cols), combining duplicates with ⊕ on
// arrival. The radix pass — "often the bottleneck" per Section 6.2 —
// disappears entirely; the direction planner selects this path when the
// estimated output density makes the sort dominate (Plan.PushOutBitmap).
// The mask is applied inline during the scatter, so masked-out positions
// are never written. wPresent must arrive cleared; the call returns the
// number of present outputs.
func ColMxvBitmap[T comparable](wVal []T, wPresent []bool, cscG *sparse.CSR[T], u VecView[T], mask MaskView, masked bool, sr SR[T], opts Opts) int {
	if masked && mask.KnownEmpty {
		if !mask.Scmp {
			return 0 // empty mask allows nothing; wPresent is already clear
		}
		masked = false // empty complement allows everything
	}
	a := arenaFor[T](opts.Ws)
	uInd, uVal := pushOperands(a, u, sr)
	sr = sr.resolve(opts)
	nvals, gathered := 0, 0
	for i, col := range uInd {
		// The scatter runs on the caller's goroutine with no chunk
		// boundaries, so poll the token every 1024 columns: the partial
		// bitmap is discarded by the caller's post-call context check.
		if i&1023 == 1023 && opts.Cancel.Cancelled() {
			break
		}
		ind, val := cscG.RowSpan(int(col))
		gathered += len(ind)
		switch sr.Form {
		case MulOne:
			for _, out := range ind {
				if masked && !mask.Allows(int(out)) {
					continue
				}
				if !wPresent[out] {
					wPresent[out] = true
					wVal[out] = sr.One
					nvals++
				}
			}
		case MulSecond, MulIndex:
			x := uVal[i]
			for _, out := range ind {
				if masked && !mask.Allows(int(out)) {
					continue
				}
				if wPresent[out] {
					wVal[out] = sr.Add(wVal[out], x)
				} else {
					wPresent[out] = true
					wVal[out] = sr.Add(sr.Id, x)
					nvals++
				}
			}
		default:
			x := uVal[i]
			for j, out := range ind {
				if masked && !mask.Allows(int(out)) {
					continue
				}
				product := sr.Mul(val[j], x)
				if wPresent[out] {
					wVal[out] = sr.Add(wVal[out], product)
				} else {
					wPresent[out] = true
					wVal[out] = sr.Add(sr.Id, product)
					nvals++
				}
			}
		}
	}
	a.count.MatrixAccesses += int64(gathered)
	a.count.ScatterOps += int64(gathered)
	if masked {
		a.count.MaskAccesses += int64(gathered)
	}
	return nvals
}

// colMxvRadix is the paper's GPU strategy (Algorithm 3) transplanted to the
// CPU worker pool: size each selected column, exclusive-scan the lengths,
// gather index/value pairs at their scanned offsets in parallel, radix-sort
// the concatenation, and segment-reduce equal keys. The One form gathers
// keys alone — the paper's halving of the sort traffic — and the second
// form pairs each key with the frontier value (MulIndex: its index) without
// reading the matrix's.
// All scratch (lengths, gather arrays, sort ping-pong buffers, histograms)
// and the parallel loop bodies come from the arena, so a warm workspace
// makes the whole pipeline allocation-free. The scan runs sequentially: it is
// O(nnz(f)) next to the gather/sort's O(d·nnz(f)·logM) and needs no
// scratch that way.
func colMxvRadix[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, sr SR[T], opts Opts, a *arena[T]) ([]uint32, []T) {
	k := len(uInd)
	if k == 0 {
		return nil, nil
	}
	cl := &a.col
	cl.ensure()
	a.lengths = grow(a.lengths, k)
	cl.lengths, cl.cscG, cl.uInd, cl.uVal, cl.sr = a.lengths, cscG, uInd, uVal, sr
	par.ForCancel(opts.Cancel, k, rowGrain, cl.size)
	total := par.ExclusiveScanSequential(cl.lengths)
	if total == 0 {
		cl.clear()
		return nil, nil
	}
	a.count.MatrixAccesses += int64(total)
	maxKey := uint32(cscG.Cols - 1)
	a.keys = grow(a.keys, total)
	keys := a.keys
	cl.keys = keys
	if sr.Form == MulOne {
		par.ForCancel(opts.Cancel, k, rowGrain, cl.gatherKeys)
		a.count.ScatterOps += int64(merge.SortKeysWith(keys, maxKey, &a.ms) * total)
		keys = merge.DedupeSortedKeys(keys)
		a.outVal = grow(a.outVal, len(keys))
		vals := a.outVal
		for i := range vals {
			vals[i] = sr.One
		}
		cl.clear()
		return keys, vals
	}
	a.vals = grow(a.vals, total)
	vals := a.vals
	cl.vals = vals
	gather := cl.gatherSecond
	if sr.Form == MulGeneral {
		gather = cl.gatherPairs
	}
	par.ForCancel(opts.Cancel, k, rowGrain, gather)
	a.count.ScatterOps += int64(merge.SortPairsWith(keys, vals, maxKey, &a.ms) * total)
	cl.clear()
	return merge.SegmentedReducePairs(keys, vals, sr.Add)
}
