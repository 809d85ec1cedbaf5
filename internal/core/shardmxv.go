package core

import (
	"math/bits"
	"sync/atomic"
	"time"

	"pushpull/internal/faultinject"
	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// ShardedMxv runs one matvec as a set of range-sharded kernels, each shard
// executing the direction its ShardPlan chose: pull shards scan their own
// output rows of rowG (the usual row kernel, restricted to [Lo, Hi)), push
// shards scatter through the destination-sharded CSC — for each frontier
// column j, the cut table locates the contiguous subrange of cscG's row j
// whose destinations fall inside the shard, so no scatter ever crosses a
// shard boundary. Every shard therefore owns a disjoint slice of the
// output bitmap (wVal/wPresent, length rowG.Rows, presence arriving
// cleared), which makes the concurrent push+pull mix race-free without
// atomics: writes from different shards never touch the same byte.
//
// The frontier is lowered both ways when the plan mix needs it — pull
// operands (probe layout) and push operands (index list) use distinct
// arena scratch, so one call may hold both. Execution merges runs of
// consecutive push shards into at most par.MaxWorkers() segments each:
// a push shard pays one cut-table probe per frontier column no matter how
// few of that column's edges it owns, so S separate push shards would scan
// the frontier S times over — the merged segment covers the run's whole
// contiguous destination range in a single pass with the run's outer cut
// bounds, restoring the unsharded push's per-edge cost while keeping one
// segment per worker for concurrency. Pull shards have no such
// amplification (each scans only its own rows) and stay unmerged. Segments
// are dispatched over the parked par workers (spans claimed dynamically,
// so an expensive hub segment does not strand the tail); timed calls stamp
// MeasuredNs into each plan entry — a merged segment's one measurement is
// apportioned over its shards by frontier edge share. Returns the number
// of present outputs.
//
// Cancellation is polled at shard granularity and every ~1k rows/columns
// inside a shard; a cancelled call leaves the output partially written,
// exactly like the unsharded kernels. A panic in a shard body (a semiring
// operator, or an armed faultinject site) is captured by par's chunk
// recovery and re-raised on the dispatching goroutine after the sibling
// shards drain, so the caller's captureFault sees one fault and no worker
// is stranded.
func ShardedMxv[T comparable](wVal []T, wPresent []bool, rowG, cscG *sparse.CSR[T], ss *ShardSet, plans []ShardPlan, u VecView[T], mask MaskView, masked bool, timed bool, sr SR[T], opts Opts) int {
	if masked && mask.KnownEmpty && mask.List == nil {
		if !mask.Scmp {
			return 0 // empty mask allows nothing; wPresent arrived cleared
		}
		masked = false // empty complement allows everything
		mask = MaskView{}
	}
	ws, transient := kernelWorkspace(opts.Ws, rowG.Rows, rowG.Cols)
	a := arenaFor[T](ws)
	sl := &a.shard
	sl.ensure()

	needPull, needPush := false, false
	for i := range plans {
		if plans[i].Dir == Pull {
			needPull = true
		} else {
			needPush = true
		}
	}
	var uVal []T
	var uPresent []bool
	var uWords []uint64
	var uInd []uint32
	var uPushVal []T
	if needPull {
		uVal, uPresent, uWords = pullOperands(a, u)
	}
	if needPush {
		uInd, uPushVal = pushOperands(a, u)
	}

	sl.stage(pullOps[T]{wVal, wPresent, rowG, uVal, uPresent, uWords, sr.resolve(opts)}, cscG, ss, plans, uInd, uPushVal, mask, masked, timed, opts)
	nseg := sl.buildSegs(plans, opts)
	if opts.Sequential {
		sl.body(0, 0, nseg)
	} else {
		par.ForWorkerCancel(opts.Cancel, nseg, sl.body)
	}
	nvals := int(sl.nvals.Load())
	sl.clear()
	if needPull && u.Kind == KindSparse {
		scrubPull(a)
	}
	if transient {
		ws.Release()
	}
	return nvals
}

// shardSeg is one execution segment: the shard index range [lo, hi) it
// covers. Pull segments are always single-shard; push segments may merge a
// run of consecutive push shards (whose destination ranges are contiguous)
// into one frontier scan.
type shardSeg struct{ lo, hi int }

// shardLoop pins the sharded matvec's worker body and staged operands in
// the arena, so dispatching shards over par never allocates a closure. The
// embedded pullOps holds the output, rowG and the pull operands; the push
// shards read its output arrays and semiring too.
type shardLoop[T comparable] struct {
	pullOps[T]
	cscG     *sparse.CSR[T]
	ss       *ShardSet
	plans    []ShardPlan
	uInd     []uint32
	uPushVal []T
	mask     MaskView
	masked   bool
	timed    bool
	opts     Opts
	nvals    atomic.Int64

	// segs is the call's execution segments (grow-once scratch; plain ints,
	// so it is deliberately not nilled by clear).
	segs []shardSeg

	body func(worker, lo, hi int)
}

// buildSegs plans the call's execution segments: every pull shard is its
// own segment, and each maximal run of consecutive push shards is split
// into at most par.MaxWorkers() edge-contiguous segments (one, when the
// kernel runs sequentially) — enough to keep every worker busy without
// paying the per-column cut probes more often than necessary.
func (sl *shardLoop[T]) buildSegs(plans []ShardPlan, opts Opts) int {
	sl.segs = sl.segs[:0]
	p := 1
	if !opts.Sequential {
		p = par.MaxWorkers()
	}
	i := 0
	for i < len(plans) {
		if plans[i].Dir == Pull {
			sl.segs = append(sl.segs, shardSeg{i, i + 1})
			i++
			continue
		}
		j := i
		for j < len(plans) && plans[j].Dir != Pull {
			j++
		}
		parts := j - i
		if parts > p {
			parts = p
		}
		for q := 0; q < parts; q++ {
			sl.segs = append(sl.segs, shardSeg{i + q*(j-i)/parts, i + (q+1)*(j-i)/parts})
		}
		i = j
	}
	return len(sl.segs)
}

func (sl *shardLoop[T]) stage(ops pullOps[T], cscG *sparse.CSR[T], ss *ShardSet, plans []ShardPlan, uInd []uint32, uPushVal []T, mask MaskView, masked, timed bool, opts Opts) {
	sl.pullOps, sl.cscG = ops, cscG
	sl.ss, sl.plans = ss, plans
	sl.uInd, sl.uPushVal = uInd, uPushVal
	sl.mask, sl.masked, sl.timed = mask, masked, timed
	sl.opts = opts
	sl.nvals.Store(0)
}

func (sl *shardLoop[T]) clear() {
	sl.pullOps, sl.cscG = pullOps[T]{}, nil
	sl.ss, sl.plans = nil, nil
	sl.uInd, sl.uPushVal = nil, nil
	sl.mask = MaskView{}
}

func (sl *shardLoop[T]) ensure() {
	if sl.body != nil {
		return
	}
	sl.body = func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			if sl.opts.Cancel.Cancelled() {
				return
			}
			sl.runSeg(sl.segs[s])
		}
	}
}

// runSeg executes one segment in its planned direction, timing it when
// asked (the MeasuredNs writes are race-free — segments own disjoint plan
// entries). The fault site fires once per covered shard, so injection
// countdowns see the same schedule whether or not push runs merged.
func (sl *shardLoop[T]) runSeg(seg shardSeg) {
	for s := seg.lo; s < seg.hi; s++ {
		faultinject.Fire(faultinject.SiteShardKernel)
	}
	var start time.Time
	if sl.timed {
		start = time.Now()
	}
	plans := sl.plans
	var c int
	if plans[seg.lo].Dir == Pull {
		c = sl.pullRange(plans[seg.lo].Lo, plans[seg.lo].Hi)
	} else {
		c = sl.pushRange(seg.lo, seg.hi)
	}
	if c > 0 {
		sl.nvals.Add(int64(c))
	}
	if sl.timed {
		total := float64(time.Since(start).Nanoseconds())
		if seg.hi-seg.lo == 1 {
			plans[seg.lo].MeasuredNs = total
			return
		}
		// One measurement covers the merged scan; apportion it over the
		// run's shards by frontier edge share (+1 so empty shards still
		// record nonzero time for the corrector and trace).
		wsum := 0.0
		for s := seg.lo; s < seg.hi; s++ {
			wsum += plans[s].Edges + 1
		}
		for s := seg.lo; s < seg.hi; s++ {
			plans[s].MeasuredNs = total * (plans[s].Edges + 1) / wsum
		}
	}
}

// pullRange is the row kernel restricted to output rows [lo, hi),
// replicating rowLoop's unmasked, bitmap-mask, word-mask and allow-list
// bodies over the subrange. Rows outside the effective mask are simply
// skipped — the output presence arrived cleared, so no per-row false
// write is needed.
func (sl *shardLoop[T]) pullRange(lo, hi int) int {
	p, opts := &sl.pullOps, sl.opts
	c := 0
	if !sl.masked {
		for i := lo; i < hi; i++ {
			if i&1023 == 1023 && opts.Cancel.Cancelled() {
				return c
			}
			if rowAccumulate(p, i) {
				c++
			}
		}
		return c
	}
	mask := sl.mask
	switch {
	case mask.List != nil:
		k1 := lowerBoundU32(mask.List, uint32(hi))
		for k := lowerBoundU32(mask.List, uint32(lo)); k < k1; k++ {
			if k&1023 == 1023 && opts.Cancel.Cancelled() {
				return c
			}
			if rowAccumulate(p, int(mask.List[k])) {
				c++
			}
		}
	case mask.Words != nil:
		words, scmp := mask.Words, mask.Scmp
		for base := lo &^ 63; base < hi; base += 64 {
			if base&65535 == 0 && opts.Cancel.Cancelled() {
				return c
			}
			mw := words[base>>6]
			if scmp {
				mw = ^mw
			}
			if base < lo {
				mw &^= (1 << uint(lo-base)) - 1
			}
			if base+64 > hi {
				mw &= (1 << uint(hi-base)) - 1
			}
			for mw != 0 {
				i := base + bits.TrailingZeros64(mw)
				mw &= mw - 1
				if rowAccumulate(p, i) {
					c++
				}
			}
		}
	default:
		for i := lo; i < hi; i++ {
			if i&1023 == 1023 && opts.Cancel.Cancelled() {
				return c
			}
			if !mask.Allows(i) {
				continue
			}
			if rowAccumulate(p, i) {
				c++
			}
		}
	}
	return c
}

// pushRange scatters the shard run [sLo, sHi)'s slice of every frontier
// column straight into the output bitmap, ColMxvBitmap's inner loop with
// the cut table bounding each column's gather to the run's contiguous
// destination range (destinations are sorted ascending within a CSC row,
// so consecutive shards' slices concatenate into one subrange — one probe
// pair per column regardless of how many shards merged). The mask is
// applied inline; duplicates combine with ⊕ on arrival.
func (sl *shardLoop[T]) pushRange(sLo, sHi int) int {
	w, wPresent, g := sl.w, sl.wPresent, sl.cscG
	// Column-major cut table: a column's lo/hi pair sits on one or two
	// adjacent cache lines, one miss per frontier column instead of two.
	cuts, stride := sl.ss.Cuts, len(sl.ss.Bounds)
	gInd, gVal := g.Ind, g.Val
	uInd, uVal := sl.uInd, sl.uPushVal
	mask, masked := sl.mask, sl.masked
	sr, opts := sl.sr, sl.opts
	c := 0
	for k, col := range uInd {
		if k&1023 == 1023 && opts.Cancel.Cancelled() {
			return c
		}
		base := int(col) * stride
		st, en := int(cuts[base+sLo]), int(cuts[base+sHi])
		switch sr.Form {
		case MulOne:
			for _, out := range gInd[st:en] {
				if masked && !mask.Allows(int(out)) {
					continue
				}
				if !wPresent[out] {
					wPresent[out] = true
					w[out] = sr.One
					c++
				}
			}
		case MulSecond:
			x := uVal[k]
			for _, out := range gInd[st:en] {
				if masked && !mask.Allows(int(out)) {
					continue
				}
				if wPresent[out] {
					w[out] = sr.Add(w[out], x)
				} else {
					wPresent[out] = true
					w[out] = sr.Add(sr.Id, x)
					c++
				}
			}
		default:
			x := uVal[k]
			for e := st; e < en; e++ {
				out := gInd[e]
				if masked && !mask.Allows(int(out)) {
					continue
				}
				product := sr.Mul(gVal[e], x)
				if wPresent[out] {
					w[out] = sr.Add(w[out], product)
				} else {
					wPresent[out] = true
					w[out] = sr.Add(sr.Id, product)
					c++
				}
			}
		}
	}
	return c
}
