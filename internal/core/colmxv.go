package core

import (
	"pushpull/internal/merge"
	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// ColMxv computes the unmasked column-based matvec w = G·u (the paper's
// SpMSpV): w = ⊕_{i : u(i)≠0} G(:,i) ⊗ u(i). cscG is the CSC of G — a CSR
// whose row i stores column i of G. The input is a format-agnostic view:
// sparse views feed the gather directly, bitmap and dense views are
// compacted into an index list in workspace scratch first. The output is
// sparse, sorted and duplicate-free.
//
// With a pinned Opts.Ws the returned slices alias workspace storage and
// stay valid only until the workspace's next kernel call — the pattern
// iterative algorithms rely on, installing the result into a vector before
// the next matvec. Without a workspace the result is caller-owned.
//
// Cost (Table 1 row 3): only columns selected by the input frontier are
// touched — O(d·nnz(f)·log nnz(f)) with the heap merge, O(d·nnz(f)·logM)
// with the radix strategy the paper uses on the GPU.
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
	ws, transient := kernelWorkspace(opts.Ws, cscG.Rows, cscG.Cols)
	a := arenaFor[T](ws)
	uInd, uVal := pushOperands(a, u)
	wInd, wVal := colMxv(cscG, uInd, uVal, mask, masked, sr, opts, a)
	if transient {
		// Auto-pooled call: hand the caller its own copy so releasing the
		// workspace (and its reuse by the next call) cannot clobber the
		// result.
		if len(wInd) > 0 {
			wInd = append([]uint32(nil), wInd...)
			wVal = append([]T(nil), wVal...)
		} else {
			wInd, wVal = nil, nil
		}
		ws.Release()
	}
	return wInd, wVal
}

func colMxv[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, mask MaskView, masked bool, sr SR[T], opts Opts, a *arena[T]) ([]uint32, []T) {
	if masked && mask.KnownEmpty {
		if !mask.Scmp {
			return nil, nil // empty mask allows nothing
		}
		masked = false // empty complement allows everything: skip the filter
	}
	sr = sr.resolve(opts)
	var wInd []uint32
	var wVal []T
	switch opts.Merge {
	case MergeHeap:
		wInd, wVal = colMxvHeap(cscG, uInd, uVal, sr, opts, a)
	case MergeSPA:
		wInd, wVal = colMxvSPA(cscG, uInd, uVal, sr, opts, a)
	default:
		wInd, wVal = colMxvRadix(cscG, uInd, uVal, sr, opts, a)
	}
	if masked {
		// Post-filter by the effective mask (Algorithm 3 Lines 17-24),
		// compacting in place over the workspace-owned merge output — no
		// fresh storage is involved.
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
	ws, transient := kernelWorkspace(opts.Ws, cscG.Rows, cscG.Cols)
	a := arenaFor[T](ws)
	uInd, uVal := pushOperands(a, u)
	sr = sr.resolve(opts)
	nvals := 0
	for i, col := range uInd {
		// The scatter runs on the caller's goroutine with no chunk
		// boundaries, so poll the token every 1024 columns: the partial
		// bitmap is discarded by the caller's post-call context check.
		if i&1023 == 1023 && opts.Cancel.Cancelled() {
			break
		}
		ind, val := cscG.RowSpan(int(col))
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
		case MulSecond:
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
	if transient {
		ws.Release()
	}
	return nvals
}

// colMxvRadix is the paper's GPU strategy (Algorithm 3) transplanted to the
// CPU worker pool: size each selected column, exclusive-scan the lengths,
// gather index/value pairs at their scanned offsets in parallel, radix-sort
// the concatenation, and segment-reduce equal keys. The One form gathers
// keys alone — the paper's halving of the sort traffic — and the second
// form pairs each key with the frontier value without reading the matrix's.
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
	if opts.Sequential {
		cl.size(0, k)
	} else {
		par.ForCancel(opts.Cancel, k, rowGrain, cl.size)
	}
	total := par.ExclusiveScanSequential(cl.lengths)
	if total == 0 {
		cl.clear()
		return nil, nil
	}
	maxKey := uint32(cscG.Cols - 1)
	a.keys = grow(a.keys, total)
	keys := a.keys
	cl.keys = keys
	if sr.Form == MulOne {
		if opts.Sequential {
			cl.gatherKeys(0, k)
		} else {
			par.ForCancel(opts.Cancel, k, rowGrain, cl.gatherKeys)
		}
		if opts.Sequential {
			merge.SortKeysSequentialWith(keys, maxKey, &a.ms)
		} else {
			merge.SortKeysWith(keys, maxKey, &a.ms)
		}
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
	gather := cl.gatherPairs
	if sr.Form == MulSecond {
		gather = cl.gatherSecond
	}
	if opts.Sequential {
		gather(0, k)
	} else {
		par.ForCancel(opts.Cancel, k, rowGrain, gather)
	}
	if opts.Sequential {
		merge.SortPairsSequentialWith(keys, vals, maxKey, &a.ms)
	} else {
		merge.SortPairsWith(keys, vals, maxKey, &a.ms)
	}
	cl.clear()
	return merge.SegmentedReducePairs(keys, vals, sr.Add)
}

// colMxvHeap gathers the selected columns and k-way merges them with a
// binary heap — the O(n log k) formulation the Section 3.1 analysis uses.
// It runs sequentially; its role is the cost-model validation and the
// merge-strategy ablation, not peak throughput. Gather and output storage
// come from the arena; only the transient run heap allocates.
func colMxvHeap[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, sr SR[T], opts Opts, a *arena[T]) ([]uint32, []T) {
	k := len(uInd)
	if k == 0 {
		return nil, nil
	}
	a.lengths = grow(a.lengths, k+1)
	offsets := a.lengths
	offsets[0] = 0
	for i, col := range uInd {
		offsets[i+1] = offsets[i] + cscG.RowLen(int(col))
	}
	total := offsets[k]
	if total == 0 {
		return nil, nil
	}
	a.keys = grow(a.keys, total)
	a.vals = grow(a.vals, total)
	keys, vals := a.keys, a.vals
	for i, col := range uInd {
		ind, val := cscG.RowSpan(int(col))
		off := offsets[i]
		copy(keys[off:], ind)
		switch sr.Form {
		case MulOne:
			for j := range ind {
				vals[off+j] = sr.One
			}
		case MulSecond:
			x := uVal[i]
			for j := range ind {
				vals[off+j] = x
			}
		default:
			x := uVal[i]
			for j := range ind {
				vals[off+j] = sr.Mul(val[j], x)
			}
		}
	}
	a.outInd = grow(a.outInd, total)
	a.outVal = grow(a.outVal, total)
	return merge.MultiwayMergePairsInto(a.outInd[:0], a.outVal[:0], keys, vals, offsets[:k+1], sr.Add)
}

// colMxvSPA accumulates into a dense scratch (sparse accumulator) indexed
// by output position, then compacts and sorts the touched set. O(n) merge
// work at the price of an M-sized scratch — paid once per workspace, not
// per call: the presence array is scrubbed via the touched list on the way
// out, restoring the all-false invariant in O(nnz(w)).
func colMxvSPA[T comparable](cscG *sparse.CSR[T], uInd []uint32, uVal []T, sr SR[T], opts Opts, a *arena[T]) ([]uint32, []T) {
	if len(uInd) == 0 {
		return nil, nil
	}
	a.acc = grow(a.acc, cscG.Cols)
	a.seen = grow(a.seen, cscG.Cols)
	acc, seen := a.acc, a.seen
	touched := a.touched[:0]
	spa := func(out uint32, product T) {
		if seen[out] {
			acc[out] = sr.Add(acc[out], product)
		} else {
			seen[out] = true
			acc[out] = sr.Add(sr.Id, product)
			touched = append(touched, out)
		}
	}
	for i, col := range uInd {
		ind, val := cscG.RowSpan(int(col))
		switch sr.Form {
		case MulOne:
			for _, out := range ind {
				spa(out, sr.One)
			}
		case MulSecond:
			for _, out := range ind {
				spa(out, uVal[i])
			}
		default:
			for j, out := range ind {
				spa(out, sr.Mul(val[j], uVal[i]))
			}
		}
	}
	a.touched = touched
	if opts.Sequential {
		merge.SortKeysSequentialWith(touched, uint32(cscG.Cols-1), &a.ms)
	} else {
		merge.SortKeysWith(touched, uint32(cscG.Cols-1), &a.ms)
	}
	a.outVal = grow(a.outVal, len(touched))
	vals := a.outVal
	for i, idx := range touched {
		vals[i] = acc[idx]
		seen[idx] = false // restore the all-false invariant for the next call
	}
	return touched, vals
}
