// Package algorithms implements graph algorithms on top of the graphblas
// package: direction-optimized BFS (the paper's headline algorithm,
// Algorithm 1, with each of the five optimizations individually
// toggleable), parent-tracking BFS, bit-parallel 64-source BFS, SSSP,
// connected components, PageRank and its masked adaptive variant, maximal
// independent set, and betweenness centrality — the Section 5.6 generality
// set. Every one runs through graphblas's MxV pipeline; none owns a kernel.
//
// # Result buffers
//
// BFS, ParentBFS, SSSP, ConnectedComponents and PageRank write their
// per-vertex result into an array the caller may supply, as Algorithm 1
// writes its depths into the caller's v: the Out field of each options
// struct. One rule covers all five. An Out of exactly n elements (n = the
// matrix dimension) is overwritten in full and the returned result aliases
// it — on an early return with a partial result too; any other length,
// nil included, is ignored and the result is a fresh array the caller owns.
// The caller may reuse or recycle the buffer only after it is done with the
// result, and must not touch it while the run is in flight.
//
// The result is the only per-vertex array a run may allocate. Every O(n)
// working vector an algorithm keeps — frontiers, visited sets, tentative
// distances and labels, rank iterates, masks — is a slot of the workspace
// the run is given (graphblas.ScratchVector), so a caller that pins one
// workspace across runs (BFSOptions.Workspace) pays for them once. Slots
// are numbered per element type and shared between algorithms, which never
// run at once on one workspace: SSSP's float64 vectors are PageRank's, and
// ParentBFS's uint32 frontier and visited set are CC's two uint32 slots.
package algorithms

import (
	"context"
	"fmt"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// BFSOptions selects which of the paper's optimizations a BFS run uses.
// The zero value is the full direction-optimized configuration (everything
// on); the Table 2 experiment builds the cumulative stack by starting from
// AllOff and enabling one field at a time.
type BFSOptions struct {
	// DisableDirectionOpt pins the traversal to push-only (the baseline
	// behaviour of SuiteSparse '17 and the Yang-2015 GPU BFS).
	DisableDirectionOpt bool
	// ForcePull pins the traversal to pull-only (used by the Figure 6
	// experiment's pull-only series). Takes precedence over
	// DisableDirectionOpt.
	ForcePull bool
	// DisableMasking drops the ¬v mask from the mxv and filters the new
	// frontier against the visited set afterwards, as a separate masked
	// Apply step — Optimization 2 off.
	DisableMasking bool
	// DisableEarlyExit forbids the pull kernel's first-parent break —
	// Optimization 3 off.
	DisableEarlyExit bool
	// DisableOperandReuse uses the frontier f (converted sparse→dense) as
	// the pull input instead of the visited pattern — Optimization 4 off.
	DisableOperandReuse bool
	// DisableStructureOnly makes kernels read matrix/vector values —
	// Optimization 5 off. A pattern-only graph stores none, so the run
	// first attaches them (graphblas.ValuedAs: one nnz-sized allocation).
	DisableStructureOnly bool
	// Model, when non-nil, prices the planner's estimates with calibrated
	// per-machine nanosecond coefficients (ppbench calibrate / -tune)
	// instead of unit RAM costs; each level's kernel time then feeds a
	// per-run corrector, so a mis-fitted profile converges mid-traversal.
	// Nil keeps the unit model, the planner's one uncalibrated rule: it
	// scored best across graphs and algorithms, but on kron it pushes
	// levels a calibrated model pulls, so timing runs should pass a profile.
	Model *core.CostModel
	// Workspace, when non-nil, pins the caller's scratch arena for the
	// traversal instead of acquiring a pooled one — the seam long-lived
	// serving workers use to keep one warm arena per worker across queries
	// (internal/serve). The caller owns its lifecycle: BFS does not
	// Release it, and it must not be used by concurrent operations. Nil
	// keeps the acquire/release-per-run behaviour.
	Workspace *graphblas.Workspace
	// Out, when it has exactly n elements, receives the depths: the result
	// aliases the buffer; the caller may reuse it only after it is done with
	// the result (package docs, "Result buffers").
	Out []int32
	// Trace, when non-nil, receives one record per BFS iteration.
	Trace func(IterStats)
	// Context, when non-nil, makes the traversal abortable: the pipeline
	// checks it between kernel phases, the parallel kernels stop claiming
	// chunks once it is done, and BFS itself checks it at each level
	// boundary. A cancelled run returns a wrapped graphblas.ErrCancelled
	// along with the partial result — depths discovered so far (unreached
	// vertices stay -1) and the per-level stats. The live-path check is
	// allocation-free, so setting a Context does not disturb the
	// zero-allocation steady state.
	Context context.Context
}

// AllOff returns options with every optimization disabled — the Table 2
// baseline: push-only, unmasked, value-carrying, no early exit.
func AllOff() BFSOptions {
	return BFSOptions{
		DisableDirectionOpt:  true,
		DisableMasking:       true,
		DisableEarlyExit:     true,
		DisableOperandReuse:  true,
		DisableStructureOnly: true,
	}
}

// IterStats records one BFS (or SSSP) iteration for tracing and the
// Figure 5/6 experiments, read off the plan the iteration's MxV recorded.
// PushCost/PullCost are the direction planner's estimates for the
// iteration — a forced direction (the ablations, SSSP's pull phase) is
// priced too — and FrontierFormat is the storage format the produced
// frontier landed in, so traces witness both the decision evidence and
// the bitset frontiers it yields.
type IterStats struct {
	Iteration    int
	Direction    core.Direction
	FrontierNNZ  int
	UnvisitedNNZ int
	Duration     time.Duration
	PushCost     float64
	PullCost     float64
	// MaskDensity is the effective ¬visited mask density the planner
	// discounted the pull cost by (exact, a popcount of the bitset visited
	// set; 1 when the unmasked ablation drops the mask).
	MaskDensity    float64
	FrontierFormat graphblas.Format
	// PredictedNs is the calibrated model's wall-clock estimate for the
	// chosen kernel, forced or planned — zero under the unit model (whose
	// costs are not nanoseconds). MeasuredNs is the kernel's time as MxV
	// measures it (the kernel alone: planning, merges and workspace
	// handling excluded), recorded on every iteration; the
	// measured/predicted ratio is the prediction error the feedback
	// corrector folds into the next decision.
	PredictedNs float64
	MeasuredNs  float64
}

// iterStats is an iteration's record as far as its MxV's plan, the frontier
// f it produced and its start time fill it.
func iterStats[T comparable](iteration int, plan *core.Plan, f *graphblas.Vector[T], start time.Time) IterStats {
	return IterStats{
		Iteration: iteration, Direction: plan.Dir, FrontierNNZ: f.NVals(), Duration: time.Since(start),
		PushCost: plan.PushCost, PullCost: plan.PullCost, MaskDensity: plan.MaskAllowFrac,
		FrontierFormat: f.Format(), PredictedNs: plan.PredictedNs, MeasuredNs: plan.MeasuredNs,
	}
}

// BFSResult carries the outputs of a traversal.
type BFSResult struct {
	// Depths[i] is the BFS level of vertex i (source = 0), or -1 if
	// unreached.
	Depths []int32
	// Visited is the number of reached vertices (including the source).
	Visited int
	// EdgesTraversed is the sum of out-degrees of reached vertices — the
	// TEPS denominator's numerator, matching Gunrock's convention.
	EdgesTraversed int64
	// Iterations is the number of frontier expansions performed.
	Iterations int
}

// MTEPS returns millions of traversed edges per second for the given
// wall-clock duration.
func (r BFSResult) MTEPS(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.EdgesTraversed) / d.Seconds() / 1e6
}

// BFS runs Algorithm 1 — the single-formula direction-optimized BFS
// f ← Aᵀf .* ¬v over the Boolean semiring — from the given source.
//
// The traversal keeps three pieces of state: the frontier f (a Boolean
// vector: sparse while pushing, bitset once the planner pulls), the
// depth vector v, and the visited pattern kept word-packed as the mask and,
// with operand reuse, as the pull input — the masked pull skips 64 visited
// vertices per word, so no separate unvisited list is kept. Algorithm 1
// Line 7, v⟨f⟩ = depth, is split between them: each level writes its depth
// over f's pattern into v and merges f into the visited pattern (the level
// loop ParentBFS and BC's forward sweep share). f and visited are the
// workspace's (a pinned workspace carries them query over query); the
// depth vector is the result and the run's one O(n) allocation, unless the
// caller supplies it (BFSOptions.Out). Each level is one masked MxV that
// plans its own direction (Descriptor.Direction Auto) with the edge-based
// cost model (frontier out-degrees vs masked pull rows, hysteresis on the
// frontier trend), priced by opt.Model when set. Operand reuse is the
// MxV's pull input (OpSpec.PullInput).
func BFS(a *graphblas.Matrix[bool], source int, opt BFSOptions) (BFSResult, error) {
	n := a.NRows()
	if a.NCols() != n {
		return BFSResult{}, fmt.Errorf("algorithms: BFS needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if source < 0 || source >= n {
		return BFSResult{}, fmt.Errorf("algorithms: BFS source %d out of range [0,%d)", source, n)
	}
	if opt.DisableStructureOnly && a.CSR().Val == nil {
		// The ablation multiplies matrix values; a pattern has none yet.
		a = graphblas.ValuedAs(a, true)
	}
	sr := graphblas.OrAndBool()

	// One workspace and one descriptor serve the whole traversal: after
	// the first couple of levels every buffer in the stack is warm and an
	// iteration allocates nothing. A caller-pinned workspace outlives the
	// run (serving workers reuse theirs query over query).
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	const (
		slotFrontier = iota
		slotVisited
	)
	f := graphblas.ScratchVector[bool](ws, slotFrontier, n)
	f.Clear()
	if err := f.SetElement(source, true); err != nil {
		return BFSResult{}, err
	}
	// The visited set — mask and operand-reuse pull input — lives
	// word-packed: both read single bits of an n/8-byte pattern instead of
	// n presence bytes.
	visited := graphblas.ScratchVector[bool](ws, slotVisited, n)
	visited.Clear()
	visited.ToBitset()
	if err := visited.SetElement(source, true); err != nil {
		return BFSResult{}, err
	}
	depths := resultBuf(opt.Out, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0

	// MxV plans each level itself (Direction Auto) and records the plan
	// in plan; the ablations pin the direction instead. Descriptor, plan
	// and corrector are the workspace's, reset for this run.
	desc, plan := ws.PlannedDescriptor(graphblas.Descriptor{
		Transpose:            true,
		StructuralComplement: !opt.DisableMasking,
		StructureOnly:        !opt.DisableStructureOnly,
		NoEarlyExit:          opt.DisableEarlyExit,
		CostModel:            opt.Model,
		Context:              opt.Context,
	})
	switch {
	case opt.ForcePull:
		desc.Direction = graphblas.ForcePull
	case opt.DisableDirectionOpt:
		desc.Direction = graphblas.ForcePush
	}

	// f⟨¬v⟩ ← Aᵀf. The unmasked ablation drops the mask from the matvec and
	// filters visited vertices out afterwards, as a masked identity apply
	// through the same pipeline (the pre-masking formulation). Optimization
	// 4: the visited set is a superset of the frontier, and with the ¬v mask
	// the extra discoveries filter out — so a pull reads the word-packed
	// visited pattern in place of f, and f never converts sparse→dense.
	step := graphblas.Into(f).With(desc)
	if !opt.DisableMasking {
		step = step.Mask(visited)
	}
	if !opt.DisableOperandReuse {
		step = step.PullInput(visited)
	}
	var filter graphblas.OpSpec[bool]
	if opt.DisableMasking {
		filter = graphblas.Into(f).Mask(visited).With(ws.SecondDescriptor(graphblas.Descriptor{StructuralComplement: true, Context: opt.Context}))
	}
	keep := func(x bool) bool { return x }

	// Depths shares its backing array with the depth bookkeeping below, so
	// error returns mid-traversal carry the partial depths discovered so far.
	res := BFSResult{Visited: 1, EdgesTraversed: int64(a.CSR().RowLen(source)), Depths: depths}
	err := sweep(opt.Context, step, sr, a, f, visited, func(level int, start time.Time) error {
		if opt.DisableMasking {
			if err := filter.Apply(keep, f); err != nil {
				return err
			}
		}
		// v⟨f⟩ = depth (Algorithm 1 Line 7): the depth array here, the
		// visited pattern in the sweep's merge.
		depth, newly, edges := int32(level), 0, int64(0)
		f.Iterate(func(i int, _ bool) bool {
			if depths[i] < 0 {
				depths[i] = depth
				newly++
				edges += int64(a.CSR().RowLen(i))
			}
			return true
		})
		res.Iterations = level
		res.Visited += newly
		res.EdgesTraversed += edges
		if opt.Trace != nil {
			s := iterStats(level, plan, f, start)
			s.UnvisitedNNZ = n - res.Visited
			opt.Trace(s)
		}
		return nil
	})
	return res, err
}

// sweep runs the level loop BFS, ParentBFS and BetweennessCentrality's
// forward sweep share, until a level discovers nothing: f⟨¬visited⟩ ←
// Aᵀ ⊕.⊗ f under step, then each with the level's number (from 1) and
// start time, which reads the new frontier off f, then visited ← visited ∪
// f. A done ctx (checked per level), a failed operation or an error from
// each ends the loop with that error, the levels before it complete.
func sweep[T bool | uint32 | float64](ctx context.Context, step graphblas.OpSpec[T], sr graphblas.Semiring[T], a *graphblas.Matrix[T],
	f, visited *graphblas.Vector[T], each func(level int, start time.Time) error) error {
	for level := 1; f.NVals() > 0; level++ {
		if err := graphblas.CheckContext(ctx); err != nil {
			return err
		}
		start := time.Now()
		if _, err := step.MxV(sr, a, f); err != nil {
			return err
		}
		if err := each(level, start); err != nil {
			return err
		}
		if err := graphblas.Into(visited).AssignVector(f); err != nil {
			return err
		}
	}
	return nil
}

// resultBuf is the one place the Out rule is decided: out itself when it has
// exactly n elements, a fresh array otherwise. Callers overwrite every
// element.
func resultBuf[T any](out []T, n int) []T {
	if len(out) == n {
		return out
	}
	return make([]T, n)
}

// runDescriptor starts a run on ws for a caller that reads no plan: without
// the sink, MxV times a kernel only to feed d.CostModel's corrector.
func runDescriptor(ws *graphblas.Workspace, d graphblas.Descriptor) *graphblas.Descriptor {
	desc, _ := ws.PlannedDescriptor(d)
	desc.Plan = nil
	return desc
}
