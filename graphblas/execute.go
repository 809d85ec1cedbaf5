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
//     for the call) and lower the mask to kernel words through it, with
//     the degenerate-mask fast paths MxV uses (a known-empty plain mask
//     yields an empty result without touching operands; a known-empty
//     complemented mask runs unmasked);
//  3. pick a format-aware kernel from the operand storage format — it
//     decides the *output* format too, so bitset and dense operands
//     produce word-packed outputs (dense when full) and only sparse
//     operands produce sparse lists;
//  4. bounce through workspace scratch when the output aliases an operand
//     or the mask's words, exactly like MxV's aliased matvec;
//  5. merge through the shared accumulate machinery (mergeInto, the
//     format-preserving merge MxV's accumulate also runs) when an
//     accumulator is set.

// exec is the resolved per-invocation state of the pipeline: workspace,
// mask view, and the spec's output/accumulator.
type exec[T comparable] struct {
	w       *Vector[T]
	accum   BinaryOp[T]
	desc    *Descriptor
	ws      *Workspace
	pooled  bool
	useMask bool
	mv      core.MaskView
}

// begin resolves the mask and the pinned workspace, if any. A pooled
// workspace is acquired lazily (see workspace): an unmasked, non-accum,
// non-aliased call — or one masked by a bitset/dense vector, whose words
// are zero-copy — never pays the pool round-trip at all.
func (s OpSpec[T]) begin() exec[T] {
	e := exec[T]{w: s.w, accum: s.accum, desc: s.desc}
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
			// its packed word buffer); bitset and dense masks hand out their
			// words zero-copy.
			ws := e.ws
			if ws == nil {
				if _, sparseMask := s.mask.maskSparseIndices(); sparseMask {
					ws = e.workspace()
				}
			}
			e.mv.Words = s.mask.maskLowerWS(ws)
		}
	}
	return e
}

// workspace returns the call's scratch workspace, acquiring a pooled one
// on first use when the descriptor pins none.
func (e *exec[T]) workspace() *Workspace {
	if e.ws == nil {
		e.ws = AcquireWorkspace(e.w.Size(), e.w.Size())
		e.pooled = true
	}
	return e.ws
}

// emptyResult reports that the effective mask allows no output at all.
func (e *exec[T]) emptyResult() bool {
	return e.useMask && e.mv.KnownEmpty && !e.mv.Scmp
}

// aliasesMask reports whether v's presence words are the exact array the
// mask was lowered to (zero-copy masks from bitset/dense vectors).
func (e *exec[T]) aliasesMask(v *Vector[T]) bool {
	return e.useMask && sharesWords(v, e.mv.Words)
}

// end releases an auto-pooled workspace.
func (e *exec[T]) end() {
	if e.pooled {
		e.ws.Release()
	}
}

// target returns the vector the kernel writes into: w directly, or the
// workspace scratch vector when the result must bounce (accumulate, or w
// aliasing an operand or the mask words).
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

// kindOf maps a storage format to the kernel view kind the planner prices
// pull's input at.
func kindOf(f Format) core.VecKind {
	switch f {
	case Sparse:
		return core.KindSparse
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

// applyIndexed runs Apply (its index-free f wrapped) and ApplyIndexed.
func (s OpSpec[T]) applyIndexed(f func(i int, x T) T, u *Vector[T]) (err error) {
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
		if u.format == Sparse {
			for k := range u.val {
				u.val[k] = f(int(u.ind[k]), u.val[k])
			}
		} else {
			for wi, w := range u.dwords {
				base := wi << 6
				for ; w != 0; w &= w - 1 {
					i := base + bits.TrailingZeros64(w)
					u.dval[i] = f(i, u.dval[i])
				}
			}
		}
		return nil
	}
	e := s.begin()
	defer e.end()
	defer e.captureFault(&err)

	if e.emptyResult() {
		if e.accum == nil {
			setEmptySparse(s.w)
		}
		return nil
	}
	uv := u.kernelView()
	aliased := s.w == u || e.aliasesMask(s.w)
	target := e.target(aliased)
	if u.format == Sparse {
		ind, val := core.ApplySparse(target.ind[:0], target.val[:0], uv, e.useMask, e.mv, f)
		target.setSparseResult(ind, val)
	} else {
		wVal, wWords := target.ensureBitsetBuffers()
		target.setDenseCount(core.ApplyBitsetOut(wVal, wWords, uv, e.useMask, e.mv, f))
	}
	e.install(target)
	return nil
}

func (s OpSpec[T]) selectOp(pred func(i int, x T) bool, u *Vector[T]) (err error) {
	if err := s.conformUnary(u); err != nil {
		return err
	}
	if err := s.ctxErr(); err != nil {
		return err
	}
	e := s.begin()
	defer e.end()
	defer e.captureFault(&err)

	if e.emptyResult() {
		if e.accum == nil {
			setEmptySparse(s.w)
		}
		return nil
	}
	uv := u.kernelView()
	aliased := s.w == u || e.aliasesMask(s.w)
	target := e.target(aliased)
	if u.format == Sparse {
		ind, val := core.SelectSparse(target.ind[:0], target.val[:0], uv, e.useMask, e.mv, pred)
		target.setSparseResult(ind, val)
	} else {
		wVal, wWords := target.ensureBitsetBuffers()
		target.setDenseCount(core.SelectBitsetOut(wVal, wWords, uv, e.useMask, e.mv, pred))
	}
	e.install(target)
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
		return nil
	}
	if s.mask == nil {
		// Unmasked merge: a workspace is only needed for the sparse-w
		// accumulate scratch, so bitset/dense destinations merge in place
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
		return nil
	}
	e := s.begin()
	defer e.end()
	defer e.captureFault(&err)
	if e.emptyResult() {
		return nil
	}
	var ws *Workspace
	if s.w.format == Sparse {
		ws = e.workspace()
	}
	mergeInto(ws, s.w, u, s.accum, e.useMask, e.mv)
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
	// A sparse destination packs into words first; a bitset or dense one
	// assigns through its words in place (ParentBFS assigns into its
	// bitset visited set every iteration).
	if w.format == Sparse {
		w.ToBitset()
	}
	wVal, wWords := w.dval, w.dwords

	setAt := func(i int) {
		if core.BitsetGet(wWords, i) {
			if accum != nil {
				wVal[i] = accum(wVal[i], value)
			} else {
				wVal[i] = value
			}
			return
		}
		core.BitsetSet(wWords, i)
		w.nvals++
		wVal[i] = value
	}

	if s.mask == nil {
		for i := 0; i < w.Size(); i++ {
			setAt(i)
		}
		w.promoteFull()
		return nil
	}
	if ind, ok := s.mask.maskSparseIndices(); ok && !scmp {
		// Fast path: walk the sparse mask's nonzero list directly.
		for _, idx := range ind {
			setAt(int(idx))
		}
		w.promoteFull()
		return nil
	}
	// Remaining cases: a complemented sparse mask (materialized through the
	// workspace's reusable words) or a bitset/dense mask (zero-copy words,
	// no workspace involved).
	if s.mask.maskKnownEmpty() {
		// Empty sparse mask: ¬m allows everything, m allows nothing.
		if scmp {
			for i := 0; i < w.Size(); i++ {
				setAt(i)
			}
			w.promoteFull()
		}
		return nil
	}
	ws := s.desc.workspace()
	if ws == nil {
		if _, sparseMask := s.mask.maskSparseIndices(); sparseMask {
			ws = AcquireWorkspace(w.Size(), w.Size())
			defer ws.Release()
		}
	}
	mv := core.MaskView{Words: s.mask.maskLowerWS(ws), Scmp: scmp}
	for i := 0; i < w.Size(); i++ {
		if mv.Allows(i) {
			setAt(i)
		}
	}
	w.promoteFull()
	return nil
}

// mergeInto folds src into w where the mask allows: w(i) = accum(w(i), x)
// where both are present (plain overwrite when accum is nil), copy where
// only src is. The merge is format-preserving — a bitset or dense w flips
// single bits in place (the BFS visited-set update lands here), a sparse w
// merges the two sorted streams into the workspace's accumulate scratch
// and swaps storage, so a sparse destination never densifies. MxV's
// accumulate is this with no mask.
func mergeInto[T comparable](ws *Workspace, w, src *Vector[T], accum BinaryOp[T], useMask bool, mv core.MaskView) {
	if src.NVals() == 0 {
		return
	}
	if w.format != Sparse {
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
		w.promoteFull()
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
	out.setSparseResult(oInd, oVal)
	swapStorage(w, out)
}
