package graphblas

import (
	"context"

	"pushpull/internal/core"
	"pushpull/internal/par"
	"pushpull/internal/pool"
)

// Workspace is the operation-level scratch arena that makes iterative
// GraphBLAS programs allocation-free in steady state, and the one owner
// of scratch below the algorithms: it holds the kernel arena (gather
// buffers, sort scratch, pinned loop bodies — see internal/core), which has
// no pool of its own, and adds the object-model scratch this layer needs:
// the word buffer sparse masks materialize into, the presence bytes the
// pull and sort-free push kernels write before MxV packs them into the
// output's words, and per-element-type scratch vectors used as the
// aliased-output bounce buffer and the sparse assign merge's target. It
// also owns a run's mutable state: the cancellation token, and the
// descriptors, plan and corrector it lends (PlannedDescriptor,
// SecondDescriptor).
//
// Lifecycle:
//
//	ws := graphblas.AcquireWorkspace(a.NRows(), a.NCols())
//	defer ws.Release()
//	desc, _ := ws.PlannedDescriptor(graphblas.Descriptor{Transpose: true})
//	for ... { graphblas.Into(w).Mask(mask).With(desc).MxV(sr, a, f) }
//
// Every algorithm in pushpull/algorithms runs this way for the run's
// lifetime. When no workspace is pinned, MxV auto-acquires one from a pool
// keyed by the matrix dimensions and releases it before returning, so even
// unpinned callers reuse warm buffers; pinning removes the per-call pool
// round-trip and is required for the strict 0 allocs/op steady state.
//
// A Workspace serves one operation at a time and must not be shared by
// concurrent calls; concurrent algorithm runs should each acquire their
// own. Scratch vectors may swap storage with user vectors (the aliased
// pull), which is exactly how buffers ping-pong instead of churning.
type Workspace struct {
	kernel     *core.Workspace
	rows, cols int
	tainted    bool

	maskWords   []uint64           // sparse-mask bitset words, scrubbed via maskTouched
	maskTouched []uint32           // indices set in maskWords by the previous mask
	present     []bool             // kernel output presence bytes, all false between calls
	scratch     map[any]any        // zero value of T → *Vector[T] (bounce and merge target)
	callers     map[callerSlot]any // → *Vector[T] handed out by ScratchVector

	tok par.Token // the operation's Context, bridged to the kernels' chunk claims
	run runState  // the current run's descriptors, plan and corrector
}

// runState is one run's mutable state: the two descriptors it lends, the
// plan the first records and the corrector both feed.
type runState struct {
	desc, second Descriptor
	plan         core.Plan
	corr         core.Corrector
}

// PlannedDescriptor starts a run on w: it zeroes the run's plan and
// corrector and returns the run's descriptor, set to d and pinned to w,
// whose MxV calls record their plan in the returned Plan and, under
// d.CostModel, feed the corrector. Both pointers stay valid until the next
// PlannedDescriptor call on w and, like w, serve one operation at a time.
func (w *Workspace) PlannedDescriptor(d Descriptor) (*Descriptor, *core.Plan) {
	w.run.plan, w.run.corr = core.Plan{}, core.Corrector{}
	w.run.desc = w.lend(d)
	w.run.desc.Plan = &w.run.plan
	return &w.run.desc, &w.run.plan
}

// SecondDescriptor returns the run's second descriptor, set to d and
// pinned to w, for the pass or assign the first cannot express. It records
// no plan and, under d.CostModel, feeds the run's corrector; it stays
// valid until the next PlannedDescriptor or SecondDescriptor call on w.
func (w *Workspace) SecondDescriptor(d Descriptor) *Descriptor {
	w.run.second = w.lend(d)
	return &w.run.second
}

// lend pins d to w and, under a cost model, to the run's corrector.
func (w *Workspace) lend(d Descriptor) Descriptor {
	d.Workspace, d.corr = w, nil
	if d.CostModel != nil {
		d.corr = &w.run.corr
	}
	return d
}

// cancelToken returns w's token bound to ctx (nil without one), re-armed
// when it is bound to another context: a token trips only once its own
// context is done.
func (w *Workspace) cancelToken(ctx context.Context) *par.Token {
	if ctx == nil {
		return nil
	}
	if w.tok.Context() != ctx {
		w.tok.Reset(ctx)
	}
	return &w.tok
}

// NewWorkspace returns an unpooled workspace for operations over a
// rows×cols matrix. Most callers want AcquireWorkspace instead.
func NewWorkspace(rows, cols int) *Workspace {
	return &Workspace{kernel: core.NewWorkspace(rows, cols), rows: rows, cols: cols}
}

// wsPool keys workspaces by matrix shape (see internal/pool).
var wsPool = pool.NewDim(NewWorkspace)

// AcquireWorkspace takes a workspace for a rows×cols matrix from the
// dimension-keyed pool, creating one if the pool is dry. Pair with Release.
func AcquireWorkspace(rows, cols int) *Workspace {
	return wsPool.Acquire(rows, cols)
}

// Release returns the workspace to its dimension pool (workspaces created
// with NewWorkspace donate their warm buffers the same way). Neither the
// workspace nor vectors still sharing storage with its scratch may be used
// afterwards. A workspace tainted by a kernel panic is discarded instead of
// pooled — the cost of one warm arena buys the guarantee that corrupted
// scratch never resurfaces under a later call.
func (w *Workspace) Release() {
	if w == nil || w.tainted {
		return
	}
	w.tok.Reset(nil) // a pooled workspace keeps no caller's context alive
	wsPool.Put(w.rows, w.cols, w)
}

// taint marks the workspace as abandoned mid-kernel: a panic unwound
// through it, so internal invariants — the cleared presence bytes, staged
// loop operands, the mask scrub list — may be violated.
// Tainted workspaces are dropped on Release, kernel arena included, and
// descriptors treat a tainted pinned workspace as absent.
func (w *Workspace) taint() {
	if w != nil {
		w.tainted = true
	}
}

// maskLowerFor lowers a mask vector into the kernel mask layout, packed
// words. Bitset and dense vectors hand out their words zero-copy; sparse
// vectors materialize into the workspace's reusable word buffer, scrubbed
// via the touched list in O(nnz(previous mask) + nnz(mask)), never O(n), so
// per-iteration sparse masks stop allocating and stop rescanning. With no
// workspace a sparse mask packs into a fresh word buffer (n/8 bytes, the
// one allocation of the unpinned path).
func maskLowerFor[M comparable](ws *Workspace, v *Vector[M]) []uint64 {
	if v.format != Sparse {
		return v.dwords
	}
	nw := core.BitsetWords(v.n)
	if ws == nil {
		fresh := make([]uint64, nw)
		core.BitsetScatter(fresh, v.ind)
		return fresh
	}
	full := ws.maskWords
	for _, i := range ws.maskTouched {
		core.BitsetUnset(full, int(i))
	}
	ws.maskTouched = ws.maskTouched[:0]
	if cap(full) < nw {
		ws.maskWords = make([]uint64, nw)
		full = ws.maskWords
	}
	w := full[:nw]
	core.BitsetScatter(w, v.ind)
	ws.maskTouched = append(ws.maskTouched, v.ind...)
	return w
}

// presentScratch returns the workspace's n presence bytes, all false: the
// output the pull and sort-free push kernels write, which MxV packs into
// the product's words with core.BitsetFromBools — the pass that also
// clears them for the next call.
func (w *Workspace) presentScratch(n int) []bool {
	if cap(w.present) < n {
		w.present = make([]bool, n)
	}
	return w.present[:n]
}

// scratchVectorFor returns the workspace's scratch vector for element type
// T, created on first use. It serves as the aliased-output bounce buffer
// and as the list a sparse assign merge builds before it swaps in; storage
// swaps with user vectors keep it warm. A change of n replaces it.
func scratchVectorFor[T comparable](ws *Workspace, n int) *Vector[T] {
	var zero T
	key := any(zero)
	if v, ok := ws.scratch[key].(*Vector[T]); ok && v.n == n {
		return v
	}
	if ws.scratch == nil {
		ws.scratch = make(map[any]any)
	}
	v := NewVector[T](n)
	ws.scratch[key] = v
	return v
}

// callerSlot keys a ScratchVector: the element type's zero value and the
// caller's slot number.
type callerSlot struct {
	zero any
	slot int
}

// ScratchVector returns the workspace-owned vector of element type T and
// length n in the caller's slot-th slot, creating it on first use (or when
// n changed). The rule it serves: an algorithm's O(n) working vectors are
// workspace slots, never per-run allocations, so a run on a pinned
// workspace allocates nothing that grows with n. The contents — and the
// direction planner's hysteresis, for a vector used as an MxV input — are
// whatever the previous borrower left: initialise (Clear, then Fill or
// SetElement, or use as a replace-mode output) before reading. Slots are
// private to one algorithm run at a time — the workspace's one-operation-
// at-a-time rule — so different algorithms may share a slot number, and
// they are distinct from the pipeline's own scratch vectors.
func ScratchVector[T comparable](ws *Workspace, slot, n int) *Vector[T] {
	var zero T
	key := callerSlot{zero, slot}
	if v, ok := ws.callers[key].(*Vector[T]); ok && v.n == n {
		return v
	}
	if ws.callers == nil {
		ws.callers = make(map[callerSlot]any)
	}
	v := NewVector[T](n)
	ws.callers[key] = v
	return v
}
