package graphblas

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"pushpull/internal/core"
	"pushpull/internal/faultinject"
	"pushpull/internal/sparse"
)

// MxV computes w⟨mask⟩ = A ⊕.⊗ u (GrB_mxv): the masked matrix-vector
// product over semiring sr, written into the spec's output vector. This is
// the pipeline entry point the whole operation surface shares; build the
// call as
//
//	Into(w).Mask(m).With(desc).MxV(sr, a, u)
//
// with any subset of the modifiers. The product replaces w; a caller that
// folds it into other values does so in the Select that filters it (SSSP,
// CC).
//
// Direction optimization happens here, once per call. With
// Descriptor.Direction == Auto, a standalone planner compares the
// estimated push cost (sum of frontier out-degrees read off CSC.Ptr, times
// the merge's log factor) against the estimated pull cost (rows × average
// degree, discounted by the effective mask density), with hysteresis on
// the frontier trend; the operand the chosen kernel reads then settles its
// storage format toward the direction, and ForcePush/ForcePull pin the
// kernel outright. The chosen direction is returned so callers can
// trace switching behaviour; set Descriptor.Plan to capture the full cost
// record. OpSpec.PullInput names a vector a pull reads in place of u
// (operand reuse).
//
// w may alias u, the pull input and/or the mask; the product is computed
// into fresh storage and installed afterwards when w aliases the mask or
// the operand the kernel reads.
//
// Faults are confined to the call: a panic in a kernel body or semiring
// operator returns as a *PanicError matching ErrKernelPanic (the workspace
// it ran on is dropped, not re-pooled), and a done Descriptor.Context
// aborts between kernel phases with a wrapped ErrCancelled. In both cases w is
// structurally valid but holds unspecified partial contents.
func (s OpSpec[T]) MxV(sr Semiring[T], a *Matrix[T], u *Vector[T]) (dir TraversalDirection, err error) {
	w, mask, desc := s.w, s.mask, s.desc
	if w == nil || a == nil || u == nil {
		return core.Push, fmt.Errorf("%w: nil operand", ErrInvalidValue)
	}
	transpose := desc != nil && desc.Transpose
	inDim, outDim := a.NCols(), a.NRows()
	if transpose {
		inDim, outDim = outDim, inDim
	}
	if u.Size() != inDim {
		return core.Push, fmt.Errorf("%w: input vector size %d, matrix wants %d", ErrDimensionMismatch, u.Size(), inDim)
	}
	if w.Size() != outDim {
		return core.Push, fmt.Errorf("%w: output vector size %d, matrix yields %d", ErrDimensionMismatch, w.Size(), outDim)
	}
	if s.pullIn != nil && s.pullIn.Size() != inDim {
		return core.Push, fmt.Errorf("%w: pull input size %d, matrix wants %d", ErrDimensionMismatch, s.pullIn.Size(), inDim)
	}
	if mask != nil && mask.Size() != outDim {
		return core.Push, fmt.Errorf("%w: mask size %d, output is %d", ErrDimensionMismatch, mask.Size(), outDim)
	}

	if a.valueless() && mulForm(sr, desc) == MulGeneral {
		return core.Push, fmt.Errorf("%w: %s", ErrInvalidValue, errValueless)
	}
	csr := toCoreSR(sr)
	if sr.Form == MulIndex && csr.Builtin == core.BuiltinNone {
		return core.Push, fmt.Errorf("%w: MulIndex has no general form; use MinIndexUint32", ErrInvalidValue)
	}

	// Orient the matrix: the pull kernel scans rows of G (= CSR of A, or
	// CSC when multiplying by Aᵀ); the push kernel gathers columns of G.
	rowG, colG := a.CSR(), a.CSC()
	if transpose {
		rowG, colG = colG, rowG
	}

	plan, in := planMxV(u, s.pullIn, mask, desc, rowG, colG, outDim)
	dir = plan.Dir
	if desc != nil && desc.Plan != nil {
		*desc.Plan = plan
	}
	// Abort point between planning and kernel launch; later phases
	// re-check, so a cancel arriving mid-call is honoured at the next
	// boundary instead of after a full traversal step.
	if err = s.ctxErr(); err != nil {
		return dir, err
	}

	// Resolve the scratch workspace: the descriptor's pinned one, or a
	// pooled one for the duration of this call (auto-pooling). The release
	// is deferred — it must also run on the recovered-panic path, where the
	// taint set by captureFault (registered later, so run first) turns it
	// into a discard.
	ws := desc.workspace()
	pooled := ws == nil
	if pooled {
		ws = AcquireWorkspace(a.NRows(), a.NCols())
		defer ws.Release()
	}
	defer captureFault(ws, &err)
	opts := desc.coreOpts(ws)

	var mv core.MaskView
	useMask := mask != nil
	if useMask {
		mv = core.MaskView{Words: mask.maskLowerWS(ws), KnownEmpty: mask.maskKnownEmpty()}
		if desc != nil {
			mv.Scmp = desc.StructuralComplement
			mv.List = desc.MaskAllowList
		}
	}

	// Kernel timing for the feedback loop and plan traces: a monotonic
	// time.Now pair around the kernel itself (workspace handling
	// excluded), allocation-free, taken only when someone is listening.
	timed := desc != nil && (desc.Plan != nil || desc.corr != nil)
	var start time.Time
	if timed {
		start = time.Now()
	}
	mxvInto(w, in, useMask, mv, rowG, colG, plan, csr, opts, ws)
	if err = s.ctxErr(); err != nil {
		return dir, err
	}
	if timed {
		// Only completed, uncancelled kernels feed the corrector's EWMA —
		// a partial traversal's timing would corrupt the feedback loop.
		plan.MeasuredNs = float64(time.Since(start).Nanoseconds())
		desc.corr.Observe(plan.Dir, plan.PredictedNs, plan.MeasuredNs)
		if desc.Plan != nil {
			desc.Plan.MeasuredNs = plan.MeasuredNs
		}
	}
	return dir, nil
}

// planMxV runs the direction planner for one MxV call and returns the
// plan with the operand the chosen kernel reads: u for a push, the pull
// input (pullIn, or u when nil) for a pull. Under Auto that operand settles
// its storage toward the decision; ForcePush/ForcePull pin the kernel
// (costs are still estimated for the trace) and leave formats alone.
func planMxV[T comparable](u, pullIn *Vector[T], mask MaskVector, desc *Descriptor, rowG, colG *sparse.CSR[T], outDim int) (core.Plan, *Vector[T]) {
	if pullIn == nil {
		pullIn = u
	}
	var force *core.Direction
	if desc != nil {
		switch desc.Direction {
		case ForcePush:
			d := core.Push
			force = &d
		case ForcePull:
			d := core.Pull
			force = &d
		}
	}

	in := core.PlanInput{
		NNZ:           u.NVals(),
		N:             u.Size(),
		OutRows:       outDim,
		PushEdges:     -1,
		AvgDeg:        core.AvgRowDegree(rowG.NNZ(), rowG.Rows),
		MaskAllowFrac: 1,
		Force:         force,
		InKind:        kindOf(pullIn.Format()),
	}
	if desc != nil {
		if desc.CostModel != nil {
			in.Model = *desc.CostModel
		}
		in.Correct = desc.corr
	}
	frontier, _ := u.SparseIndices()
	// The mask's allowed rows, exact: a bitset or dense mask popcounts its
	// words (immune to stale nvals after raw word writes), a sparse mask
	// counts its list.
	allowed := -1
	if mask != nil {
		switch {
		case desc != nil && desc.MaskAllowList != nil:
			allowed = len(desc.MaskAllowList)
		case desc != nil && desc.StructuralComplement:
			allowed = outDim - mask.maskNVals()
		default:
			allowed = mask.maskNVals()
		}
	}

	// Hysteresis rides on the input vector only when the planner actually
	// decides; forced calls neither read nor disturb it.
	var st *core.PlanState
	if force == nil {
		st = &u.pstate
	}
	plan := decide(in, colG, frontier, allowed, st)
	read := u
	if plan.Dir == core.Pull {
		read = pullIn
	}
	if force == nil {
		read.settleFormat(plan)
	}
	return plan, read
}

// decide is the package's one direction decision: planMxV and
// Planner.Plan both come here. frontier, when non-nil, is the input's
// sparse index list: the push cost then uses the exact Σ outdeg read off
// colG (the push-side CSR), in full even under a forced direction, since a
// forced push prices the scatter against the sort on it to pick its kernel
// variant; a bitset or dense input leaves the planner's nnz·d̄ estimate.
// allowed counts the output rows the effective mask lets through, negative
// for an unmasked product.
func decide[T comparable](in core.PlanInput, colG *sparse.CSR[T], frontier []uint32, allowed int, st *core.PlanState) core.Plan {
	if frontier != nil {
		edges := 0
		for _, i := range frontier {
			edges += colG.RowLen(int(i))
		}
		in.PushEdges = float64(edges)
	}
	if allowed >= 0 && in.OutRows > 0 {
		in.MaskAllowFrac = float64(allowed) / float64(in.OutRows)
	}
	return core.DecideDirection(in, st)
}

// mxvInto runs the chosen kernel on u — the operand it actually reads, so
// for a pull with a pull input that input — writing the product into dst.
// The pull and the sort-free push write presence bytes into the
// workspace's byte scratch, which is then packed into the output's words
// and cleared in the same pass. When dst aliases the kernel inputs (an
// output that is also u or the mask) the workspace's scratch vector takes
// the write and storage is swapped in afterwards — the swap leaves dst's
// old buffers in the workspace, so repeated aliased calls ping-pong between
// two warm buffers instead of allocating.
func mxvInto[T comparable](dst *Vector[T], u *Vector[T], useMask bool, mv core.MaskView, rowG, colG *sparse.CSR[T], plan core.Plan, sr core.SR[T], opts core.Opts, ws *Workspace) {
	faultinject.Fire(faultinject.SiteMxVKernel)
	uv := u.kernelView()
	if plan.Dir == core.Push && !plan.PushOutBitmap {
		var ind []uint32
		var val []T
		if useMask {
			ind, val = core.ColMaskedMxv(colG, uv, mv, sr, opts)
		} else {
			ind, val = core.ColMxv(colG, uv, sr, opts)
		}
		// The kernel result aliases workspace storage (opts.Ws is always
		// set here); copy into dst's own reusable buffers before the
		// workspace moves on.
		dst.setSparseCopy(ind, val)
		return
	}
	target := dst
	aliased := sameVector(dst, u) || (useMask && sharesWords(dst, mv.Words))
	if aliased {
		target = scratchVectorFor[T](ws, dst.Size())
	}
	wVal, wWords := target.ensureBitsetBuffers()
	wPresent := ws.presentScratch(dst.Size())
	switch {
	case plan.Dir == core.Push:
		// Sort-free output: scatter products straight into the byte
		// scratch, skipping the radix pass.
		core.ColMxvBitmap(wVal, wPresent, colG, uv, mv, useMask, sr, opts)
	case useMask:
		core.RowMaskedMxv(wVal, wPresent, rowG, uv, mv, sr, opts)
	default:
		core.RowMxv(wVal, wPresent, rowG, uv, sr, opts)
	}
	target.setDenseCount(core.BitsetFromBools(wWords, wPresent))
	if aliased {
		swapStorage(dst, target)
	}
}

// sameVector reports pointer identity.
func sameVector[T comparable](a, b *Vector[T]) bool { return a == b }

// sharesWords reports whether v's packed presence words are the exact
// slice handed out as mask words (zero-copy masks from bitset and dense
// vectors).
func sharesWords[T comparable](v *Vector[T], words []uint64) bool {
	return v.dwords != nil && len(words) > 0 && len(v.dwords) > 0 && &v.dwords[0] == &words[0]
}

// swapStorage moves src's contents into dst (constant time).
func swapStorage[T comparable](dst, src *Vector[T]) {
	dst.format = src.format
	dst.ind, src.ind = src.ind, dst.ind
	dst.val, src.val = src.val, dst.val
	dst.dval, src.dval = src.dval, dst.dval
	dst.dwords, src.dwords = src.dwords, dst.dwords
	dst.nvals = src.nvals
}

// errValueless is the complaint when a multiply would read the values a
// pattern-only matrix does not store.
const errValueless = "general-form semiring over a pattern-only matrix; use a MulSecond/MulOne semiring, Descriptor.StructureOnly or ValuedAs"

// mulForm is the multiply form a call runs: the semiring's, unless the
// descriptor's StructureOnly overrides it to MulOne.
func mulForm[T any](s Semiring[T], desc *Descriptor) MulForm {
	if desc != nil && desc.StructureOnly {
		return MulOne
	}
	return s.Form
}

// toCoreSR lowers a public semiring to the kernel representation.
func toCoreSR[T comparable](s Semiring[T]) core.SR[T] {
	return core.SR[T]{
		Add:      s.Add.Op,
		Id:       s.Add.Identity,
		Terminal: s.Add.Terminal,
		Mul:      s.Mul,
		One:      s.One,
		Form:     s.Form,
		Builtin:  builtinOf(s),
	}
}

// builtinOf names the concrete pull loop a semiring may run, or none. The
// match is on the operators themselves — the functions PlusSecondFloat64,
// MinPlusFloat64, MinSecondUint32 and MinIndexUint32 install — and on the
// form and terminal each ships with, so a user literal, or a constructor's
// value whose Add.Op, Mul, Form or Terminal was reassigned, runs the
// closures (or, having none under MulIndex, is refused by MxV). Identity is
// read from the value on either path, so an edit to it is followed too.
func builtinOf[T any](s Semiring[T]) core.Builtin {
	switch add := any(s.Add.Op).(type) {
	case BinaryOp[float64]:
		neg, _ := any(s.Add.Terminal).(*float64)
		switch {
		case s.Form == MulSecond && s.Add.Terminal == nil && sameOp(add, plusFloat64):
			return core.BuiltinPlusSecondFloat64
		case s.Form == MulGeneral && neg != nil && math.IsInf(*neg, -1) &&
			sameOp(add, math.Min) && sameOp(any(s.Mul).(BinaryOp[float64]), plusFloat64):
			return core.BuiltinMinPlusFloat64
		}
	case BinaryOp[uint32]:
		zero, _ := any(s.Add.Terminal).(*uint32)
		switch {
		case s.Form == MulSecond && s.Add.Terminal == nil && sameOp(add, minUint32):
			return core.BuiltinMinSecondUint32
		case s.Form == MulIndex && zero != nil && *zero == 0 && sameOp(add, minUint32):
			return core.BuiltinMinIndexUint32
		}
	}
	return core.BuiltinNone
}

// sameOp reports whether f is g itself — the same function, not merely an
// equivalent one: a wrapper or a closure never matches.
func sameOp[T any](f, g BinaryOp[T]) bool {
	return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
}
