package graphblas

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/faultinject"
	"pushpull/internal/sparse"
)

// This file is the range-sharded MxV pipeline (Descriptor.Shards > 1): the
// output index space splits into contiguous edge-balanced destination
// ranges (geometry cached on the matrix), the direction planner runs once
// per shard over shard-local frontier and mask densities, and the shards
// execute concurrently — pull shards scanning their own rows, push shards
// scattering through the destination-sharded CSC — each into its disjoint
// slice of one bitmap output. Everything else (masking, accumulate,
// aliasing, cancellation, fault capture, corrector feedback, input format
// settling toward the planned direction) mirrors the unsharded MxV
// pipeline; whole-operation hysteresis is replaced by per-shard sticky
// flips inside PlanShards, the per-shard correctors carry the between-call
// memory, and the output's format is stitched from the shard mix after the
// kernel.

// shardExactFrontierFrac bounds the frontier density up to which a
// non-sparse frontier is expanded back into an index list for exact
// per-shard edge counts. Above it the expansion (and the S·nnz cut
// subtractions it feeds) costs more than the estimate error, and the
// decisions stop being sensitive to exactness — a near-dense frontier
// pulls everywhere.
const shardExactFrontierFrac = 1.0 / 8

// PlanInput.Force targets for the sharded pipeline. PlanShards lets its
// input escape (the per-shard correctors), so pointing Force at a local
// would heap-allocate it on every forced call; these are never written.
var forcedPush, forcedPull = core.Push, core.Pull

// effShards returns the effective shard count for one call: the
// descriptor's knob, gated off when NoAutoConvert pins format-follows-
// storage dispatch (which bypasses the planner sharding needs) and clamped
// by the unsharded fallback for degenerate outputs.
func effShards(desc *Descriptor, outDim int) int {
	if desc == nil || desc.Shards <= 1 || desc.NoAutoConvert || outDim <= 0 {
		return 1
	}
	return desc.Shards
}

// mxvSharded runs one MxV as a set of per-shard direction decisions and
// range-local kernels. Preconditions (checked by the caller): operands
// validated, ss non-nil with ss.Shards() > 1.
func (s OpSpec[T]) mxvSharded(sr Semiring[T], a *Matrix[T], u *Vector[T], rowG, colG *sparse.CSR[T], ss *core.ShardSet, outDim int) (dir TraversalDirection, err error) {
	w, mask, accum, desc := s.w, s.mask, s.accum, s.desc
	var force *core.Direction
	switch desc.Direction {
	case ForcePush:
		force = &forcedPush
	case ForcePull:
		force = &forcedPull
	}

	csr := toCoreSR(sr)
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
		mv = core.MaskView{KnownEmpty: mask.maskKnownEmpty()}
		mv.Words, mv.Bits = mask.maskLowerWS(ws)
		mv.Scmp = desc.StructuralComplement
		mv.List = desc.MaskAllowList
	}

	// The whole-operation evidence the per-shard decisions refine. Unlike
	// planMxV, no frontier degree sum is taken here — PlanShards reads each
	// shard's exact edge count off the cut table, which is cheaper than the
	// CSC.Ptr walk (one subtraction per shard-column instead of a row scan).
	in := core.PlanInput{
		NNZ:           u.NVals(),
		N:             u.Size(),
		OutRows:       outDim,
		PushEdges:     -1,
		AvgDeg:        core.AvgRowDegree(rowG.NNZ(), rowG.Rows),
		MaskAllowFrac: 1,
		Force:         force,
		InKind:        kindOf(u.Format()),
		SwitchPoint:   desc.SwitchPoint,
	}
	if desc.CostModel != nil {
		in.Model = *desc.CostModel
	}
	in.Correct = desc.Corrector
	if useMask && outDim > 0 {
		if desc.MaskAllowList != nil {
			in.MaskAllowFrac = float64(len(desc.MaskAllowList)) / float64(outDim)
		} else {
			frac := float64(mask.maskNVals()) / float64(outDim)
			if mv.Scmp {
				frac = 1 - frac
			}
			in.MaskAllowFrac = frac
		}
	}
	frontier, _ := u.SparseIndices()
	if frontier == nil && in.NNZ > 0 && in.N > 0 &&
		float64(in.NNZ) <= shardExactFrontierFrac*float64(in.N) {
		// A word-packed or bitmap frontier is still exact evidence — the
		// common case mid-traversal, after a pull decision settled the
		// format. Expand it once into workspace scratch rather than letting
		// PlanShards fall back to density×InEdges estimates, which assume
		// frontier out-degrees follow the average and underprice push badly
		// on skewed graphs (a frontier brushing the hub core carries an
		// order of magnitude more edges than its cardinality suggests).
		// Dense and high-density frontiers skip the expansion: there the
		// uniform estimate is tight and pull dominates every shard anyway.
		switch u.Format() {
		case Bitset:
			ws.frontierIdx = core.BitsetIndices(u.dwords, ws.frontierIdx[:0])
			frontier = ws.frontierIdx
		case Bitmap:
			buf := ws.frontierIdx[:0]
			for i, p := range u.dpresent {
				if p {
					buf = append(buf, uint32(i))
				}
			}
			ws.frontierIdx = buf
			frontier = buf
		}
	}

	plans := ws.shardPlansFor(ss.Shards())
	core.PlanShards(in, ss, frontier, mv, useMask, plans)
	plan := summarizeShards(plans, in)
	dir = plan.Dir
	if desc.Plan != nil {
		*desc.Plan = plan
	}
	if force == nil {
		// Settle the input's storage toward the shard majority, mirroring
		// the unsharded pipeline: a sparse frontier on a majority-pull
		// schedule converts to the word-packed probe layout once, instead
		// of re-materializing the arena's probe bitmap on every call
		// (an O(nnz) scatter plus scrub per iteration that the unsharded
		// pull never pays after its first call). Push operands off a
		// bitset are a cheap word scan, and exact shard planning survives
		// the conversion through the frontier-index expansion above.
		u.settleFormat(plan, effConvertPoint(desc))
	}
	if err = s.ctxErr(); err != nil {
		return dir, err
	}

	timed := desc.Plan != nil || desc.Corrector != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	if accum != nil {
		t := scratchVectorFor[T](ws, outDim)
		mxvShardedInto(t, u, useMask, mv, rowG, colG, ss, plans, plan, timed, csr, opts, ws, desc)
		if timed {
			plan.MeasuredNs = float64(time.Since(start).Nanoseconds())
		}
		if err = s.ctxErr(); err != nil {
			return dir, err
		}
		mergeInto(ws, w, t, accum, false, core.MaskView{})
	} else {
		mxvShardedInto(w, u, useMask, mv, rowG, colG, ss, plans, plan, timed, csr, opts, ws, desc)
		if timed {
			plan.MeasuredNs = float64(time.Since(start).Nanoseconds())
		}
		if err = s.ctxErr(); err != nil {
			return dir, err
		}
	}
	if timed {
		// Per-shard feedback: each shard's (predicted, measured) pair folds
		// into its own corrector key, so hub-shard timings never bend
		// tail-shard estimates. Only completed kernels reach this point.
		// The per-direction sums also fold into the parent corrector as the
		// pooled prior a shard reads for a direction it has never run (see
		// Corrector.Shard) — one pooled observation per direction per call.
		var predSum, measSum [2]float64
		for i := range plans {
			desc.Corrector.Shard(i).Observe(plans[i].Dir, plans[i].PredictedNs, plans[i].MeasuredNs)
			if plans[i].PredictedNs > 0 && plans[i].MeasuredNs > 0 {
				predSum[plans[i].Dir] += plans[i].PredictedNs
				measSum[plans[i].Dir] += plans[i].MeasuredNs
			}
		}
		desc.Corrector.Observe(core.Push, predSum[core.Push], measSum[core.Push])
		desc.Corrector.Observe(core.Pull, predSum[core.Pull], measSum[core.Pull])
		if desc.Plan != nil {
			desc.Plan.MeasuredNs = plan.MeasuredNs
			desc.Plan.OutKind = kindOf(w.format)
		}
	}
	return dir, nil
}

// summarizeShards folds the per-shard records into the whole-operation
// plan: majority direction (ties go to push, matching the planner's
// empty-frontier bias), summed costs, Hybrid when the mix is real.
func summarizeShards(plans []core.ShardPlan, in core.PlanInput) core.Plan {
	pulls := 0
	plan := core.Plan{
		Op:            core.OpMxV,
		Rule:          core.RuleSharded,
		FrontierNNZ:   in.NNZ,
		N:             in.N,
		MaskAllowFrac: in.MaskAllowFrac,
		Shards:        plans,
	}
	for i := range plans {
		plan.PushCost += plans[i].PushCost
		plan.PullCost += plans[i].PullCost
		plan.PredictedNs += plans[i].PredictedNs
		if plans[i].Dir == core.Pull {
			pulls++
		}
	}
	if pulls*2 > len(plans) {
		plan.Dir = core.Pull
	}
	plan.Hybrid = pulls > 0 && pulls < len(plans)
	return plan
}

// mxvShardedInto runs the sharded kernel into dst, bouncing through the
// workspace scratch vector when dst aliases the input or mask (same
// discipline as mxvInto). The output is produced in bitmap form — every
// shard owns a disjoint slice of one presence array — then stitched toward
// the lattice kind the shard mix implies: an all-push run whose result
// stayed sparse compacts to a sparse list, anything else keeps the bitmap
// (with the usual full-pattern promotion to Dense).
func mxvShardedInto[T comparable](dst *Vector[T], u *Vector[T], useMask bool, mv core.MaskView, rowG, colG *sparse.CSR[T], ss *core.ShardSet, plans []core.ShardPlan, plan core.Plan, timed bool, sr core.SR[T], opts core.Opts, ws *Workspace, desc *Descriptor) {
	faultinject.Fire(faultinject.SiteMxVKernel)
	target := dst
	aliased := sameVector(dst, u) || (useMask && (sharesBits(dst, mv.Bits) || sharesWords(dst, mv.Words)))
	if aliased {
		target = scratchVectorFor[T](ws, dst.Size())
	}
	wVal, wPresent := target.ensureDenseBuffers()
	nvals := core.ShardedMxv(wVal, wPresent, rowG, colG, ss, plans, u.kernelView(), mv, useMask, timed, sr, opts)
	target.setDenseCount(nvals)
	if !plan.Hybrid && plan.Dir == core.Push && target.format == Bitmap &&
		float64(nvals) < effConvertPoint(desc)*float64(target.Size()) {
		// A uniformly-pushed sparse result would have come out of the
		// unsharded pipeline as a sparse list; compact so the format
		// lattice sees the same kind (warm capacity — no steady-state
		// allocation).
		target.ToSparse()
	}
	if aliased {
		swapStorage(dst, target)
	}
}
