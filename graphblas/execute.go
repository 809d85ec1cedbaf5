package graphblas

import (
	"fmt"
	"math/bits"

	"pushpull/internal/core"
)

// This file is the single execute path behind every OpSpec operation. Each
// op runs the same stages:
//
//  1. conform dimensions (operands, output, mask) — once, up front;
//  2. resolve the workspace (the descriptor's pinned one, or a pooled one
//     for the call) and lower the mask to a kernel bitmap through it, with
//     the degenerate-mask fast paths MxV uses (a known-empty plain mask
//     yields an empty result without touching operands; a known-empty
//     complemented mask runs unmasked);
//  3. pick a format-aware kernel from the operand storage formats — the
//     format engine's lattice decides the *output* format too, so bitmap
//     and dense operands produce bitmap/dense outputs (dense∘dense eWise
//     loops run over the value arrays directly) and only all-sparse
//     operand sets produce sparse lists;
//  4. bounce through workspace scratch when the output aliases an operand
//     or the mask's bitmap, exactly like MxV's aliased matvec;
//  5. merge through the shared accumulate machinery (mergeInto, the
//     format-preserving merge MxV's accumulate also runs) when an
//     accumulator is set;
//  6. record what ran — operation, output storage kind — in the
//     descriptor's Plan sink for tracing.

// exec is the resolved per-invocation state of the pipeline: workspace,
// mask view, and the spec's output/accumulator.
type exec[T comparable] struct {
	w          *Vector[T]
	accum      BinaryOp[T]
	desc       *Descriptor
	ws         *Workspace
	pooled     bool
	rows, cols int
	useMask    bool
	mv         core.MaskView
}

// begin resolves the mask and the pinned workspace, if any. A pooled
// workspace is acquired lazily (see workspace): an unmasked, non-accum,
// non-aliased call — or one masked by a bitmap/dense vector, whose bits
// are zero-copy — never pays the pool round-trip at all.
func (s OpSpec[T]) begin(rows, cols int) exec[T] {
	e := exec[T]{w: s.w, accum: s.accum, desc: s.desc, rows: rows, cols: cols}
	e.ws = s.desc.workspace()
	if s.mask != nil {
		e.useMask = true
		e.mv.KnownEmpty = s.mask.maskKnownEmpty()
		if s.desc != nil {
			e.mv.Scmp = s.desc.StructuralComplement
			e.mv.List = s.desc.MaskAllowList
		}
		// Degenerate masks, resolved once for every op: empty ¬m allows
		// everything (drop the mask), empty m allows nothing (the caller
		// checks emptyResult and skips the kernel, so no bits are needed).
		if e.mv.KnownEmpty && e.mv.Scmp {
			e.useMask = false
		}
		if e.useMask && !e.emptyResult() {
			// Only a sparse mask materializes through the workspace (into
			// its packed word buffer); bitset masks hand out their words and
			// bitmap/dense masks their presence array, both zero-copy.
			ws := e.ws
			if ws == nil {
				if _, sparseMask := s.mask.maskSparseIndices(); sparseMask {
					ws = e.workspace()
				}
			}
			e.mv.Words, e.mv.Bits = s.mask.maskLowerWS(ws)
		}
	}
	return e
}

// workspace returns the call's scratch workspace, acquiring a pooled one
// on first use when the descriptor pins none.
func (e *exec[T]) workspace() *Workspace {
	if e.ws == nil {
		e.ws = AcquireWorkspace(e.rows, e.cols)
		e.pooled = true
	}
	return e.ws
}

// emptyResult reports that the effective mask allows no output at all.
func (e *exec[T]) emptyResult() bool {
	return e.useMask && e.mv.KnownEmpty && !e.mv.Scmp
}

// aliasesMask reports whether v's presence storage is the exact array the
// mask was lowered to (zero-copy masks from bitmap/dense/bitset vectors).
func (e *exec[T]) aliasesMask(v *Vector[T]) bool {
	return e.useMask && (sharesBits(v, e.mv.Bits) || sharesWords(v, e.mv.Words))
}

// end releases an auto-pooled workspace.
func (e *exec[T]) end() {
	if e.pooled {
		e.ws.Release()
	}
}

// target returns the vector the kernel writes into: w directly, or the
// workspace scratch vector when the result must bounce (accumulate, or w
// aliasing an operand or the mask bitmap).
func (e *exec[T]) target(aliased bool) *Vector[T] {
	if e.accum != nil || aliased {
		return scratchVectorFor[T](e.workspace(), e.w.Size())
	}
	return e.w
}

// install lands the kernel result in w: nothing to do when the kernel wrote
// w directly, a constant-time storage swap for an alias bounce, or the
// format-preserving accumulate merge (which only needs workspace scratch
// for a sparse destination).
func (e *exec[T]) install(target *Vector[T]) {
	if target == e.w {
		return
	}
	if e.accum != nil {
		var ws *Workspace
		if e.w.format == Sparse {
			ws = e.workspace()
		}
		mergeInto(ws, e.w, target, e.accum, false, core.MaskView{})
		return
	}
	swapStorage(e.w, target)
}

// record writes the operation trace into the descriptor's Plan sink.
func recordPlan(desc *Descriptor, op string, nnz, n int, out core.VecKind) {
	if desc == nil || desc.Plan == nil {
		return
	}
	*desc.Plan = core.Plan{Op: op, OutKind: out, Rule: core.RuleFormat, FrontierNNZ: nnz, N: n}
}

// kindOf maps a storage format to the kernel view kind recorded in plans.
func kindOf(f Format) core.VecKind {
	switch f {
	case Sparse:
		return core.KindSparse
	case Bitmap:
		return core.KindBitmap
	case Bitset:
		return core.KindBitset
	default:
		return core.KindDense
	}
}

// conformMask checks the mask's length against the output dimension.
func (s OpSpec[T]) conformMask(outSize int) error {
	if s.mask != nil && s.mask.Size() != outSize {
		return fmt.Errorf("%w: mask size %d, output is %d", ErrDimensionMismatch, s.mask.Size(), outSize)
	}
	return nil
}

// setEmptySparse clears v to an empty sparse result (the known-empty-mask
// product) without surrendering its buffers.
func setEmptySparse[T comparable](v *Vector[T]) {
	v.setSparseResult(v.ind[:0], v.val[:0])
}

// ---------------------------------------------------------------------------
// eWise

func (s OpSpec[T]) ewise(union bool, op BinaryOp[T], u, v *Vector[T]) (err error) {
	if err := conformEWise(s.w, u, v); err != nil {
		return err
	}
	if err := s.conformMask(s.w.Size()); err != nil {
		return err
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	opName := core.OpEWiseMult
	if union {
		opName = core.OpEWiseAdd
	}
	e := s.begin(s.w.Size(), s.w.Size())
	defer e.end()
	defer e.captureFault(&err)

	if e.emptyResult() {
		if e.accum == nil {
			setEmptySparse(s.w)
		}
		recordPlan(s.desc, opName, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
		return nil
	}

	// Output format follows the operand lattice: an intersection is at most
	// as dense as its sparser operand, a union at least as dense as its
	// denser one; when a bitset operand is involved (and no sparse one),
	// the output lands word-packed and the pattern is computed 64 positions
	// per word op.
	denseish := u.format != Sparse && v.format != Sparse
	bitsetOut := denseish && (u.format == Bitset || v.format == Bitset)
	bitmapOut := denseish && !bitsetOut
	if union && !bitsetOut {
		bitmapOut = u.format != Sparse || v.format != Sparse
	}
	uv, vv := u.kernelView(), v.kernelView()
	aliased := s.w == u || s.w == v || e.aliasesMask(s.w)
	target := e.target(aliased)

	if bitsetOut {
		wVal, wWords := target.ensureBitsetBuffers()
		var nv int
		if bop, ok := any(op).(BinaryOp[bool]); ok {
			// Boolean operands: truth-table the operator once and run the
			// whole eWise — pattern and values — as 64-way word arithmetic.
			ub, vb, tb := any(u).(*Vector[bool]), any(v).(*Vector[bool]), any(target).(*Vector[bool])
			nv = core.BoolEWiseBitset(union, tb.dval, wWords, ub.kernelView(), vb.kernelView(), e.useMask, e.mv, bop)
		} else if union {
			nv = core.EWiseAddBitsetOut(wVal, wWords, uv, vv, e.useMask, e.mv, op)
		} else {
			nv = core.EWiseMultBitsetOut(wVal, wWords, uv, vv, e.useMask, e.mv, op)
		}
		target.setDenseCount(nv)
	} else if bitmapOut {
		wVal, wPresent := target.ensureDenseBuffers()
		var nv int
		if union {
			nv = core.EWiseAddBitmap(wVal, wPresent, uv, vv, e.useMask, e.mv, op)
		} else {
			nv = core.EWiseMultBitmap(wVal, wPresent, uv, vv, e.useMask, e.mv, op)
		}
		target.setDenseCount(nv)
	} else {
		ind, val := target.ind[:0], target.val[:0]
		if union {
			ind, val = core.EWiseAddSparse(ind, val, uv, vv, e.useMask, e.mv, op)
		} else {
			ind, val = core.EWiseMultSparse(ind, val, uv, vv, e.useMask, e.mv, op)
		}
		target.setSparseResult(ind, val)
	}
	e.install(target)
	recordPlan(s.desc, opName, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
	return nil
}

// ---------------------------------------------------------------------------
// apply / select

func (s OpSpec[T]) conformUnary(u *Vector[T]) error {
	if s.w == nil || u == nil {
		return fmt.Errorf("%w: nil operand", ErrInvalidValue)
	}
	if s.w.Size() != u.Size() {
		return fmt.Errorf("%w: sizes %d, %d", ErrDimensionMismatch, s.w.Size(), u.Size())
	}
	return s.conformMask(s.w.Size())
}

// applyIndexed runs apply. plain, when non-nil, is the index-free operator
// the indexed f was wrapped around (OpSpec.Apply): for Boolean bitset
// operands its two-entry truth table lets the whole map run as word
// arithmetic instead of one call per element.
func (s OpSpec[T]) applyIndexed(plain func(T) T, f func(i int, x T) T, u *Vector[T]) (err error) {
	if err := s.conformUnary(u); err != nil {
		return err
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	// In-place fast path: same pattern, mapped values — no workspace, no
	// format change, no copies. A panicking user operator still surfaces
	// as ErrKernelPanic (there is no workspace to taint here).
	if s.w == u && s.mask == nil && s.accum == nil {
		defer captureFault(nil, &err)
		switch u.format {
		case Sparse:
			for k := range u.val {
				u.val[k] = f(int(u.ind[k]), u.val[k])
			}
		case Bitset:
			for wi, w := range u.dwords {
				base := wi << 6
				for ; w != 0; w &= w - 1 {
					i := base + bits.TrailingZeros64(w)
					u.dval[i] = f(i, u.dval[i])
				}
			}
		default:
			for i := 0; i < u.n; i++ {
				if u.dpresent[i] {
					u.dval[i] = f(i, u.dval[i])
				}
			}
		}
		recordPlan(s.desc, core.OpApply, u.NVals(), u.n, kindOf(u.format))
		return nil
	}
	e := s.begin(s.w.Size(), s.w.Size())
	defer e.end()
	defer e.captureFault(&err)

	if e.emptyResult() {
		if e.accum == nil {
			setEmptySparse(s.w)
		}
		recordPlan(s.desc, core.OpApply, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
		return nil
	}
	uv := u.kernelView()
	aliased := s.w == u || e.aliasesMask(s.w)
	target := e.target(aliased)
	switch {
	case u.format == Bitset:
		wVal, wWords := target.ensureBitsetBuffers()
		if bf, ok := any(plain).(func(bool) bool); ok && plain != nil {
			ub, tb := any(u).(*Vector[bool]), any(target).(*Vector[bool])
			target.setDenseCount(core.BoolApplyBitset(tb.dval, wWords, ub.kernelView(), e.useMask, e.mv, bf))
		} else {
			target.setDenseCount(core.ApplyBitsetOut(wVal, wWords, uv, e.useMask, e.mv, f))
		}
	case u.format != Sparse:
		wVal, wPresent := target.ensureDenseBuffers()
		target.setDenseCount(core.ApplyBitmap(wVal, wPresent, uv, e.useMask, e.mv, f))
	default:
		ind, val := core.ApplySparse(target.ind[:0], target.val[:0], uv, e.useMask, e.mv, f)
		target.setSparseResult(ind, val)
	}
	e.install(target)
	recordPlan(s.desc, core.OpApply, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
	return nil
}

func (s OpSpec[T]) selectOp(pred func(i int, x T) bool, u *Vector[T]) (err error) {
	if err := s.conformUnary(u); err != nil {
		return err
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	e := s.begin(s.w.Size(), s.w.Size())
	defer e.end()
	defer e.captureFault(&err)

	if e.emptyResult() {
		if e.accum == nil {
			setEmptySparse(s.w)
		}
		recordPlan(s.desc, core.OpSelect, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
		return nil
	}
	uv := u.kernelView()
	aliased := s.w == u || e.aliasesMask(s.w)
	target := e.target(aliased)
	switch {
	case u.format == Bitset:
		wVal, wWords := target.ensureBitsetBuffers()
		target.setDenseCount(core.SelectBitsetOut(wVal, wWords, uv, e.useMask, e.mv, pred))
	case u.format != Sparse:
		wVal, wPresent := target.ensureDenseBuffers()
		target.setDenseCount(core.SelectBitmap(wVal, wPresent, uv, e.useMask, e.mv, pred))
	default:
		ind, val := core.SelectSparse(target.ind[:0], target.val[:0], uv, e.useMask, e.mv, pred)
		target.setSparseResult(ind, val)
	}
	e.install(target)
	recordPlan(s.desc, core.OpSelect, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
	return nil
}

// ---------------------------------------------------------------------------
// assign

func (s OpSpec[T]) assignVector(u *Vector[T]) (err error) {
	if err := s.conformUnary(u); err != nil {
		return err
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	if s.w == u && s.accum == nil {
		recordPlan(s.desc, core.OpAssign, u.NVals(), u.n, kindOf(u.format))
		return nil
	}
	if s.mask == nil {
		// Unmasked merge: a workspace is only needed for the sparse-w
		// accumulate scratch, so bitmap/dense destinations merge in place
		// with no pool round-trip at all. Release is deferred so a
		// panicking accumulator (captured below, taint first) discards the
		// pooled workspace instead of re-pooling it.
		ws := s.desc.workspace()
		if ws == nil && s.w.format == Sparse {
			ws = AcquireWorkspace(s.w.Size(), s.w.Size())
			defer ws.Release()
		}
		defer captureFault(ws, &err)
		mergeInto(ws, s.w, u, s.accum, false, core.MaskView{})
		recordPlan(s.desc, core.OpAssign, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
		return nil
	}
	e := s.begin(s.w.Size(), s.w.Size())
	defer e.end()
	defer e.captureFault(&err)
	if e.emptyResult() {
		recordPlan(s.desc, core.OpAssign, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
		return nil
	}
	var ws *Workspace
	if s.w.format == Sparse {
		ws = e.workspace()
	}
	mergeInto(ws, s.w, u, s.accum, e.useMask, e.mv)
	recordPlan(s.desc, core.OpAssign, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
	return nil
}

func (s OpSpec[T]) assignScalar(value T) (err error) {
	w := s.w
	if w == nil {
		return fmt.Errorf("%w: nil output", ErrInvalidValue)
	}
	if err := s.conformMask(w.Size()); err != nil {
		return err
	}
	// Only the user accumulator can panic here, and it runs after any mask
	// lowering has fully settled the workspace's scrub bookkeeping — so the
	// workspace stays poolable and the guard taints nothing.
	defer captureFault(nil, &err)
	accum := s.accum
	scmp := s.desc != nil && s.desc.StructuralComplement
	// A bitset destination assigns through its packed words in place — it
	// must not demote to bitmap just to take a scalar (ParentBFS assigns
	// into its bitset visited set every iteration).
	var wVal []T
	var wPresent []bool
	var wWords []uint64
	if w.format == Bitset {
		wVal, wWords = w.dval, w.dwords
	} else {
		wVal, wPresent = w.denseView()
	}

	setAt := func(i int) {
		stored := false
		if wWords != nil {
			stored = core.BitsetGet(wWords, i)
		} else {
			stored = wPresent[i]
		}
		if stored {
			if accum != nil {
				wVal[i] = accum(wVal[i], value)
			} else {
				wVal[i] = value
			}
			return
		}
		if wWords != nil {
			core.BitsetSet(wWords, i)
		} else {
			wPresent[i] = true
		}
		w.nvals++
		wVal[i] = value
	}

	if s.mask == nil {
		for i := 0; i < w.Size(); i++ {
			setAt(i)
		}
		w.maybePromoteFull()
		recordPlan(s.desc, core.OpAssignScalar, w.NVals(), w.Size(), kindOf(w.format))
		return nil
	}
	if ind, ok := s.mask.maskSparseIndices(); ok && !scmp {
		// Fast path: walk the sparse mask's nonzero list directly.
		for _, idx := range ind {
			setAt(int(idx))
		}
		w.maybePromoteFull()
		recordPlan(s.desc, core.OpAssignScalar, w.NVals(), w.Size(), kindOf(w.format))
		return nil
	}
	// Remaining cases: a complemented sparse mask (materialized through the
	// workspace's reusable bitmap) or a bitmap/dense mask (zero-copy bits,
	// no workspace involved).
	if s.mask.maskKnownEmpty() {
		// Empty sparse mask: ¬m allows everything, m allows nothing.
		if scmp {
			for i := 0; i < w.Size(); i++ {
				setAt(i)
			}
			w.maybePromoteFull()
		}
		recordPlan(s.desc, core.OpAssignScalar, w.NVals(), w.Size(), kindOf(w.format))
		return nil
	}
	ws := s.desc.workspace()
	if ws == nil {
		if _, sparseMask := s.mask.maskSparseIndices(); sparseMask {
			ws = AcquireWorkspace(w.Size(), w.Size())
			defer ws.Release()
		}
	}
	mWords, mBits := s.mask.maskLowerWS(ws)
	mv := core.MaskView{Words: mWords, Bits: mBits, Scmp: scmp}
	for i := 0; i < w.Size(); i++ {
		if mv.Allows(i) {
			setAt(i)
		}
	}
	w.maybePromoteFull()
	recordPlan(s.desc, core.OpAssignScalar, w.NVals(), w.Size(), kindOf(w.format))
	return nil
}

// mergeInto folds src into w where the mask allows: w(i) = accum(w(i), x)
// where both are present (plain overwrite when accum is nil), copy where
// only src is. The merge is format-preserving — a bitmap or dense w updates
// in place, a sparse w merges the two sorted streams into the workspace's
// accumulate scratch and swaps storage, so a sparse destination never
// densifies. MxV's accumulate is this with no mask.
func mergeInto[T comparable](ws *Workspace, w, src *Vector[T], accum BinaryOp[T], useMask bool, mv core.MaskView) {
	if src.NVals() == 0 {
		return
	}
	if w.format == Bitset {
		// Word-packed destination: flip single bits in place, no bitmap
		// round-trip (the BFS visited-set update lands here).
		wVal, words := w.dval, w.dwords
		src.Iterate(func(i int, x T) bool {
			if useMask && !mv.Allows(i) {
				return true
			}
			if core.BitsetGet(words, i) {
				if accum != nil {
					wVal[i] = accum(wVal[i], x)
				} else {
					wVal[i] = x
				}
			} else {
				core.BitsetSet(words, i)
				wVal[i] = x
				w.nvals++
			}
			return true
		})
		return
	}
	if w.format != Sparse {
		wVal, wPresent := w.dval, w.dpresent
		src.Iterate(func(i int, x T) bool {
			if useMask && !mv.Allows(i) {
				return true
			}
			if wPresent[i] {
				if accum != nil {
					wVal[i] = accum(wVal[i], x)
				} else {
					wVal[i] = x
				}
			} else {
				w.format = Bitmap // pattern grew: settle below
				wVal[i] = x
				wPresent[i] = true
				w.nvals++
			}
			return true
		})
		w.maybePromoteFull()
		return
	}
	// Sparse w: two-pointer merge of w's sorted list with src's ascending
	// iteration, built in the accumulate scratch vector and swapped in.
	out := accumScratchFor[T](ws, w.n)
	oInd := out.ind[:0]
	oVal := out.val[:0]
	wi := 0
	src.Iterate(func(i int, x T) bool {
		if useMask && !mv.Allows(i) {
			return true
		}
		for wi < len(w.ind) && int(w.ind[wi]) < i {
			oInd = append(oInd, w.ind[wi])
			oVal = append(oVal, w.val[wi])
			wi++
		}
		if wi < len(w.ind) && int(w.ind[wi]) == i {
			if accum != nil {
				oVal = append(oVal, accum(w.val[wi], x))
			} else {
				oVal = append(oVal, x)
			}
			oInd = append(oInd, w.ind[wi])
			wi++
		} else {
			oInd = append(oInd, uint32(i))
			oVal = append(oVal, x)
		}
		return true
	})
	oInd = append(oInd, w.ind[wi:]...)
	oVal = append(oVal, w.val[wi:]...)
	out.ind, out.val = oInd, oVal
	out.format = Sparse
	out.nvals = 0
	if out.dpresent != nil {
		clearBools(out.dpresent)
	}
	swapStorage(w, out)
}

// ---------------------------------------------------------------------------
// extract

func (s OpSpec[T]) extract(u *Vector[T], indices []uint32) (err error) {
	if s.w == nil || u == nil {
		return fmt.Errorf("%w: nil operand", ErrInvalidValue)
	}
	if s.w.Size() != len(indices) {
		return fmt.Errorf("%w: extract output size %d, %d indices", ErrDimensionMismatch, s.w.Size(), len(indices))
	}
	for _, idx := range indices {
		if int(idx) >= u.Size() {
			return fmt.Errorf("%w: extract index %d in vector of size %d", ErrIndexOutOfBounds, idx, u.Size())
		}
	}
	if err := s.conformMask(s.w.Size()); err != nil {
		return err
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	e := s.begin(s.w.Size(), u.Size())
	defer e.end()
	defer e.captureFault(&err)

	if e.emptyResult() {
		if e.accum == nil {
			setEmptySparse(s.w)
		}
		recordPlan(s.desc, core.OpExtract, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
		return nil
	}
	uv := u.kernelView()
	aliased := s.w == u || e.aliasesMask(s.w)
	target := e.target(aliased)
	if u.format != Sparse {
		wVal, wPresent := target.ensureDenseBuffers()
		target.setDenseCount(core.ExtractBitmap(wVal, wPresent, uv, indices, e.useMask, e.mv))
	} else {
		ind, val := core.ExtractSparse(target.ind[:0], target.val[:0], uv, indices, e.useMask, e.mv)
		target.setSparseResult(ind, val)
	}
	e.install(target)
	recordPlan(s.desc, core.OpExtract, s.w.NVals(), s.w.Size(), kindOf(s.w.format))
	return nil
}
