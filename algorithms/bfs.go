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
	// SwitchPoint, when positive, selects the paper's legacy nnz/n ratio
	// rule at that crossover instead of the default edge-based cost model
	// (the direction planner). Zero means plan by cost.
	SwitchPoint float64
	// Model, when non-nil, prices the planner's estimates with calibrated
	// per-machine nanosecond coefficients (ppbench calibrate / -tune)
	// instead of unit RAM costs; each level's kernel time then feeds a
	// per-run corrector, so a mis-fitted profile converges mid-traversal.
	// Nil keeps the unit model.
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
// the bitmap frontiers it yields.
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
// vector: sparse while pushing, bitmap once the planner pulls), the
// depth vector v (updated with masked scalar assign, Algorithm 1 Line 7),
// and the visited pattern kept word-packed as the mask and, with operand
// reuse, as the pull input — the masked pull skips 64 visited vertices per
// word, so no separate unvisited list is kept. f and visited are the
// workspace's (a pinned workspace carries them query over query); the
// depth vector is the result and the run's one O(n) allocation, unless the
// caller supplies it (BFSOptions.Out). Each level is one masked MxV that
// plans its own direction (Descriptor.Direction Auto): the edge-based cost
// model by default (frontier out-degrees vs masked pull rows, hysteresis
// on the frontier trend), or the legacy ratio rule when opt.SwitchPoint is
// set. Operand reuse is the MxV's pull input (OpSpec.PullInput).
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

	depth := int32(0)
	// Depths shares its backing array with the depth bookkeeping below, so
	// error returns mid-traversal carry the partial depths discovered so far.
	res := BFSResult{Visited: 1, EdgesTraversed: int64(len(firstRow(a, source))), Depths: depths}

	// MxV plans each level itself (Direction Auto) and records the plan
	// in plan; the ablations pin the direction instead.
	desc, plan := plannedDescriptor(graphblas.Descriptor{
		Transpose:            true,
		StructuralComplement: !opt.DisableMasking,
		StructureOnly:        !opt.DisableStructureOnly,
		NoEarlyExit:          opt.DisableEarlyExit,
		SwitchPoint:          opt.SwitchPoint,
		CostModel:            opt.Model,
		Workspace:            ws,
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
		filter = graphblas.Into(f).Mask(visited).With(&graphblas.Descriptor{StructuralComplement: true, Workspace: ws, Context: opt.Context})
	}
	keep := func(x bool) bool { return x }

	for f.NVals() > 0 {
		// Level boundary: a cancelled context aborts within one iteration,
		// returning the depths discovered so far.
		if err := graphblas.CheckContext(opt.Context); err != nil {
			return res, err
		}
		iterStart := time.Now()
		depth++
		res.Iterations++

		if _, err := step.MxV(sr, a, f); err != nil {
			return res, err
		}
		if opt.DisableMasking {
			if err := filter.Apply(keep, f); err != nil {
				return res, err
			}
		}

		// Bookkeeping: v⟨f⟩ = depth (Algorithm 1 Line 7, split across the
		// depth array and the visited pattern).
		newly := 0
		f.Iterate(func(i int, _ bool) bool {
			if depths[i] < 0 {
				depths[i] = depth
				newly++
				res.EdgesTraversed += int64(a.CSR().RowLen(i))
			}
			return true
		})
		if err := graphblas.Into(visited).AssignVector(f); err != nil {
			return res, err
		}
		res.Visited += newly

		if opt.Trace != nil {
			opt.Trace(IterStats{
				Iteration:      res.Iterations,
				Direction:      plan.Dir,
				FrontierNNZ:    f.NVals(),
				UnvisitedNNZ:   n - res.Visited,
				Duration:       time.Since(iterStart),
				PushCost:       plan.PushCost,
				PullCost:       plan.PullCost,
				MaskDensity:    plan.MaskAllowFrac,
				FrontierFormat: f.Format(),
				PredictedNs:    plan.PredictedNs,
				MeasuredNs:     plan.MeasuredNs,
			})
		}
	}
	res.Depths = depths
	return res, nil
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

// plannedDescriptor returns a copy of d whose MxV calls record their plan
// in the returned Plan and, under a calibrated model, feed a fresh
// corrector — the three in one allocation.
func plannedDescriptor(d graphblas.Descriptor) (*graphblas.Descriptor, *core.Plan) {
	run := &struct {
		desc graphblas.Descriptor
		plan core.Plan
		corr core.Corrector
	}{desc: d}
	run.desc.Plan = &run.plan
	if d.CostModel != nil {
		run.desc.Corrector = &run.corr
	}
	return &run.desc, &run.plan
}

// firstRow returns the source row's indices (edge count seed for TEPS).
func firstRow(a *graphblas.Matrix[bool], i int) []uint32 {
	ind, _ := a.RowView(i)
	return ind
}
