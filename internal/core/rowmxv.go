package core

import (
	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// rowGrain is the chunk size for parallelizing over matrix rows. Power-law
// rows are wildly uneven, so chunks stay small and are balanced dynamically
// by par.For.
const rowGrain = 256

// RowMxv computes the unmasked row-based matvec w = G·u (the paper's SpMV):
// for every row i, w(i) = ⊕_j G(i,j) ⊗ u(j). The input is a format-agnostic
// view: bitset views are probed through their presence words, dense views
// skip the presence probe entirely (every position is stored), and sparse
// views are packed into workspace words first. Outputs are written into
// caller-allocated w/wPresent (length G.Rows); rows with no contributing
// terms are marked absent. Returns the number of present outputs, so
// callers never rescan the presence bytes to recount.
//
// Cost (Table 1 row 1): every stored entry of G is examined regardless of
// input or output sparsity — O(d·M).
func RowMxv[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], u VecView[T], sr SR[T], opts Opts) int {
	a := arenaFor[T](opts.Ws)
	uVal, uWords := pullOperands(a, u)
	rl := &a.row
	rl.ensure()
	rl.stage(pullOps[T]{w, wPresent, g, uVal, uWords, sr.resolve(opts)}, MaskView{})
	par.ForCancel(opts.Cancel, g.Rows, rowGrain, rl.run)
	return a.finishPull(0)
}

// RowMaskedMxv computes the masked row-based matvec w = (G·u) .⊙ m
// (Algorithm 2): only rows the effective mask allows are accumulated, the
// rest are absent. With mask.List supplied the kernel touches exactly
// nnz(effective mask) rows, realizing the O(d·nnz(m)) cost of Table 1 row 2
// with no O(M) scan — which also means rows outside the list are never
// written, so the caller must hand in wPresent already cleared (the vector
// layer reuses one zeroed byte scratch across calls). Without a list the
// mask scan tests the mask's words, 64 rows per load. Returns the number of
// present outputs.
func RowMaskedMxv[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], u VecView[T], mask MaskView, sr SR[T], opts Opts) int {
	if mask.KnownEmpty && mask.List == nil {
		if !mask.Scmp {
			// Empty mask allows nothing: clear the output and stop.
			clear(wPresent)
			return 0
		}
		// Empty complement allows everything: identical write pattern to
		// the unmasked kernel, without the per-row mask probe.
		return RowMxv(w, wPresent, g, u, sr, opts)
	}
	a := arenaFor[T](opts.Ws)
	uVal, uWords := pullOperands(a, u)
	rl := &a.row
	rl.ensure()
	rl.stage(pullOps[T]{w, wPresent, g, uVal, uWords, sr.resolve(opts)}, mask)
	if mask.List != nil {
		par.ForCancel(opts.Cancel, len(mask.List), rowGrain, rl.runList)
		return a.finishPull(0)
	}
	// The scan tests (and, under scmp, complements) 64 rows per word.
	par.ForCancel(opts.Cancel, g.Rows, rowGrain, rl.runMaskWords)
	return a.finishPull(g.Rows)
}

// RowMaskedMxvCounted runs RowMaskedMxv over a byte-bitmap input, packed
// into words, on a workspace of its own and adds the work it counted to c:
// MatrixAccesses is the matrix entries the pull examined.
func RowMaskedMxvCounted[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], uVal []T, uPresent []bool, mask MaskView, sr SR[T], opts Opts, c *Counter) {
	opts.Ws = NewWorkspace(g.Rows, g.Cols)
	words := make([]uint64, BitsetWords(len(uPresent)))
	for i, p := range uPresent {
		if p {
			BitsetSet(words, i)
		}
	}
	RowMaskedMxv(w, wPresent, g, BitsetVec(uVal, words, 0), mask, sr, opts) // the pull reads no nvals
	c.Add(opts.Ws.TakeCounts())
}

// rowAccumulate folds row i of G against u into w[i] — the inner loop of
// Algorithm 2. sr arrives resolved (SR.resolve), so the builtin arm, the
// multiply form and the early-exit terminal are read once per row and each
// owns its loops: a Builtin semiring folds in a concrete loop (rowbuiltin.go),
// the One form touches no value array at all (with a terminal it is the BFS
// pull's pure existence scan, stopping at the first present parent), the
// second form folds u(j) itself and never touches g.Val, the general form
// loads G's value and calls Mul. The input layout picks the probe: uWords
// is the word-packed presence bitset the masked pull's complemented probe
// runs against, and nil means every position is stored, so the probe
// disappears. It reports whether w[i] was written present and how many of
// the row's entries it examined (all of them, or up to and including the
// early-exit hit), so chunk bodies can count output nonzeroes and work as
// they go; an existence scan that finds nothing leaves wPresent[i] as the
// caller cleared it.
func rowAccumulate[T comparable](p *pullOps[T], i int) (bool, int) {
	if p.sr.Builtin != BuiltinNone { // graphblas tags only SRs of the arm's type
		switch p.sr.Builtin {
		case BuiltinPlusSecondFloat64:
			return plusSecondRow(any(p).(*pullOps[float64]), i)
		case BuiltinMinPlusFloat64:
			return minPlusRow(any(p).(*pullOps[float64]), i)
		case BuiltinMinIndexUint32:
			return minIndexRow(any(p).(*pullOps[uint32]), i)
		}
		return minSecondRow(any(p).(*pullOps[uint32]), i)
	}
	w, wPresent, g, uVal, uWords, sr := p.w, p.wPresent, p.g, p.uVal, p.uWords, &p.sr
	lo, hi := g.Ptr[i], g.Ptr[i+1]
	dense := uWords == nil
	earlyExit := sr.Terminal != nil
	if sr.Form == MulOne && earlyExit {
		// Pure existence scan (Algorithm 2 Line 8): k stops at the first
		// present parent. A dense input stores every position, so a
		// non-empty row's first entry is that parent.
		k := lo
		if dense {
			wPresent[i] = false
		} else {
			for k < hi && !BitsetGet(uWords, int(g.Ind[k])) {
				k++
			}
		}
		if k == hi {
			return false, hi - lo
		}
		w[i] = *sr.Terminal
		wPresent[i] = true
		return true, k - lo + 1
	}
	examined := hi - lo // unless an early exit cuts the row short
	ind := g.Ind[lo:hi]
	acc, any := sr.Id, dense && hi > lo
	switch sr.Form {
	case MulOne:
		for _, j := range ind {
			if dense || BitsetGet(uWords, int(j)) {
				acc = sr.Add(acc, sr.One)
				any = true
			}
		}
	case MulSecond:
		for k, j := range ind {
			if !dense && !BitsetGet(uWords, int(j)) {
				continue
			}
			acc = sr.Add(acc, uVal[j])
			any = true
			if earlyExit && acc == *sr.Terminal {
				examined = k + 1
				break
			}
		}
	default:
		val := g.Val[lo:hi]
		for k, j := range ind {
			if !dense && !BitsetGet(uWords, int(j)) {
				continue
			}
			acc = sr.Add(acc, sr.Mul(val[k], uVal[j]))
			any = true
			if earlyExit && acc == *sr.Terminal {
				examined = k + 1
				break
			}
		}
	}
	if any {
		w[i] = acc
	}
	wPresent[i] = any
	return any, examined
}
