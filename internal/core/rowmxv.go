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
// view: bitmap views are probed through their presence bits, dense views
// skip the presence probe entirely (every position is stored), and sparse
// views are materialized into workspace scratch first. Outputs are written
// into caller-allocated w/wPresent (length G.Rows); rows with no
// contributing terms are marked absent. Returns the number of present
// outputs, so callers never rescan the presence bitmap to recount.
//
// Cost (Table 1 row 1): every stored entry of G is examined regardless of
// input or output sparsity — O(d·M).
func RowMxv[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], u VecView[T], sr SR[T], opts Opts) int {
	a := arenaFor[T](opts.Ws)
	uVal, uPresent, uWords := pullOperands(a, u)
	rl := &a.row
	rl.ensure()
	rl.stage(pullOps[T]{w, wPresent, g, uVal, uPresent, uWords, sr.resolve(opts)}, MaskView{})
	par.ForCancel(opts.Cancel, g.Rows, rowGrain, rl.run)
	nvals := int(rl.nvals.Load())
	rl.clear()
	if u.Kind == KindSparse {
		scrubPull(a)
	}
	return nvals
}

// RowMaskedMxv computes the masked row-based matvec w = (G·u) .⊙ m
// (Algorithm 2): only rows the effective mask allows are accumulated, the
// rest are absent. With mask.List supplied the kernel touches exactly
// nnz(effective mask) rows, realizing the O(d·nnz(m)) cost of Table 1 row 2
// with no O(M) scan — which also means rows outside the list are never
// written, so the caller must hand in wPresent already cleared (the vector
// layer reuses one zeroed bitmap across iterations). Returns the number of
// present outputs.
func RowMaskedMxv[T comparable](w []T, wPresent []bool, g *sparse.CSR[T], u VecView[T], mask MaskView, sr SR[T], opts Opts) int {
	if mask.KnownEmpty && mask.List == nil {
		if !mask.Scmp {
			// Empty mask allows nothing: clear the output and stop.
			for i := range wPresent {
				wPresent[i] = false
			}
			return 0
		}
		// Empty complement allows everything: identical write pattern to
		// the unmasked kernel, without the per-row bitmap probe.
		return RowMxv(w, wPresent, g, u, sr, opts)
	}
	a := arenaFor[T](opts.Ws)
	uVal, uPresent, uWords := pullOperands(a, u)
	rl := &a.row
	rl.ensure()
	rl.stage(pullOps[T]{w, wPresent, g, uVal, uPresent, uWords, sr.resolve(opts)}, mask)
	switch {
	case mask.List != nil:
		par.ForCancel(opts.Cancel, len(mask.List), rowGrain, rl.runList)
	case mask.Words != nil:
		// Word-packed mask: the scan tests (and, under scmp, complements)
		// 64 rows per word instead of one element at a time.
		par.ForCancel(opts.Cancel, g.Rows, rowGrain, rl.runMaskWords)
	default:
		par.ForCancel(opts.Cancel, g.Rows, rowGrain, rl.runMask)
	}
	nvals := int(rl.nvals.Load())
	rl.clear()
	if u.Kind == KindSparse {
		scrubPull(a)
	}
	return nvals
}

// rowAccumulate folds row i of G against u into w[i] — the inner loop of
// Algorithm 2. sr arrives resolved (SR.resolve), so the builtin arm, the
// multiply form and the early-exit terminal are read once per row and each
// owns its loops: a Builtin semiring folds in a concrete loop (rowbuiltin.go),
// the One form touches no value array at all (with a terminal it is the BFS
// pull's pure existence scan, stopping at the first present parent), the
// second form folds u(j) itself and never touches g.Val, the general form
// loads G's value and calls Mul. The input layout picks the probe: uWords
// is the word-packed presence bitset — the 8×-smaller visited-set layout
// the masked pull's complemented probe runs against — uPresent the byte
// bitmap, and both nil means every position is stored, so the probe
// disappears. It reports whether w[i] was written present, so chunk bodies
// can count output nonzeroes as they go; an existence scan that finds
// nothing leaves wPresent[i] as the caller cleared it.
func rowAccumulate[T comparable](p *pullOps[T], i int) bool {
	if p.sr.Builtin != BuiltinNone { // graphblas tags only SRs of the arm's type
		switch p.sr.Builtin {
		case BuiltinPlusSecondFloat64:
			return plusSecondRow(any(p).(*pullOps[float64]), i)
		case BuiltinMinPlusFloat64:
			return minPlusRow(any(p).(*pullOps[float64]), i)
		}
		return minSecondRow(any(p).(*pullOps[uint32]), i)
	}
	w, wPresent, g, uVal, uPresent, uWords, sr := p.w, p.wPresent, p.g, p.uVal, p.uPresent, p.uWords, &p.sr
	lo, hi := g.Ptr[i], g.Ptr[i+1]
	dense := uPresent == nil && uWords == nil
	earlyExit := sr.Terminal != nil
	if sr.Form == MulOne && earlyExit {
		// Pure existence scan (Algorithm 2 Line 8).
		found := false
		switch {
		case dense:
			wPresent[i] = false
			found = hi > lo
		case uWords != nil:
			for k := lo; k < hi; k++ {
				if BitsetGet(uWords, int(g.Ind[k])) {
					found = true
					break
				}
			}
		default:
			for k := lo; k < hi; k++ {
				if uPresent[g.Ind[k]] {
					found = true
					break
				}
			}
		}
		if found {
			w[i] = *sr.Terminal
			wPresent[i] = true
		}
		return found
	}
	ind := g.Ind[lo:hi]
	acc, any := sr.Id, dense && hi > lo
	switch sr.Form {
	case MulOne:
		switch {
		case dense:
			for range ind {
				acc = sr.Add(acc, sr.One)
			}
		case uWords != nil:
			for _, j := range ind {
				if BitsetGet(uWords, int(j)) {
					acc = sr.Add(acc, sr.One)
					any = true
				}
			}
		default:
			for _, j := range ind {
				if uPresent[j] {
					acc = sr.Add(acc, sr.One)
					any = true
				}
			}
		}
	case MulSecond:
		switch {
		case dense:
			for _, j := range ind {
				acc = sr.Add(acc, uVal[j])
				if earlyExit && acc == *sr.Terminal {
					break
				}
			}
		case uWords != nil:
			for _, j := range ind {
				if !BitsetGet(uWords, int(j)) {
					continue
				}
				acc = sr.Add(acc, uVal[j])
				any = true
				if earlyExit && acc == *sr.Terminal {
					break
				}
			}
		default:
			for _, j := range ind {
				if !uPresent[j] {
					continue
				}
				acc = sr.Add(acc, uVal[j])
				any = true
				if earlyExit && acc == *sr.Terminal {
					break
				}
			}
		}
	default:
		val := g.Val[lo:hi]
		switch {
		case dense:
			for k, j := range ind {
				acc = sr.Add(acc, sr.Mul(val[k], uVal[j]))
				if earlyExit && acc == *sr.Terminal {
					break
				}
			}
		case uWords != nil:
			for k, j := range ind {
				if !BitsetGet(uWords, int(j)) {
					continue
				}
				acc = sr.Add(acc, sr.Mul(val[k], uVal[j]))
				any = true
				if earlyExit && acc == *sr.Terminal {
					break
				}
			}
		default:
			for k, j := range ind {
				if !uPresent[j] {
					continue
				}
				acc = sr.Add(acc, sr.Mul(val[k], uVal[j]))
				any = true
				if earlyExit && acc == *sr.Terminal {
					break
				}
			}
		}
	}
	if any {
		w[i] = acc
	}
	wPresent[i] = any
	return any
}
