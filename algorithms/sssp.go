package algorithms

import (
	"context"
	"fmt"
	"math"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// SSSPOptions configures the Bellman-Ford traversal.
type SSSPOptions struct {
	// Model, when non-nil, prices the direction decision with calibrated
	// nanosecond coefficients and feeds each relaxation matvec's measured
	// time back into the planner's corrector (see BFSOptions.Model).
	Model *core.CostModel
	// Workspace, when non-nil, pins the caller's scratch arena for the run
	// instead of acquiring a pooled one (see BFSOptions.Workspace): not
	// released by SSSP, not shareable between concurrent operations.
	Workspace *graphblas.Workspace
	// Out, when it has exactly n elements, receives the distances: the
	// result aliases the buffer; the caller may reuse it only after it is
	// done with the result (package docs, "Result buffers").
	Out []float64
	// Trace, when non-nil, receives one record per relaxation round.
	Trace func(IterStats)
	// Context, when non-nil, makes the relaxation abortable: the pipeline
	// checks it between kernel phases, the parallel kernels stop claiming
	// chunks once it is done, and the round loop checks it at each round
	// boundary. A cancelled run returns a wrapped graphblas.ErrCancelled
	// along with the partial distances relaxed so far (unreached vertices
	// stay +Inf). The live-path check is allocation-free.
	Context context.Context
}

// SSSP computes single-source shortest paths on a non-negatively weighted
// graph with frontier-driven Bellman-Ford over the (min, +) semiring.
// Each round relaxes only the *active* vertices — those whose distance
// improved last round — so the active set plays the role of the BFS
// frontier and the same push-pull machinery applies. Following the
// paper's Section 5.6, SSSP uses the 2-phase direction scheme: start
// column-based, switch to row-based when the active set grows large (the
// workfront of SSSP does not shrink back the way BFS's does, so there is
// no third phase). MxV plans each push round under the edge-based cost
// model, which prices SSSP's *unmasked* pull at the full M·d̄ — no a-priori
// output sparsity exists for relaxation — so the break-even sits near
// nnz(f)·d̄·log nnz(f) ≈ M·d̄ rather than the 1% that masked BFS pull
// enjoys.
//
// Unreachable vertices get +Inf.
func SSSP(a *graphblas.Matrix[float64], source int, opt SSSPOptions) ([]float64, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: SSSP needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if source < 0 || source >= n {
		return nil, fmt.Errorf("algorithms: SSSP source %d out of range [0,%d)", source, n)
	}
	sr := graphblas.MinPlusFloat64()

	// One workspace and descriptor for the whole relaxation loop. The
	// working vectors are the workspace's float64 slots, the ones PageRank
	// keeps its ranks, next ranks and inverse degrees in, so a pinned
	// workspace carries one set for both.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	const (
		slotDist = iota
		slotActive
		slotCand
	)
	// Distances live in a true Dense vector (every position stored, +Inf =
	// unreached) so the relax fold reads and lowers the value array
	// directly.
	dist := graphblas.ScratchVector[float64](ws, slotDist, n)
	dist.Fill(math.Inf(1))
	if err := dist.SetElement(source, 0); err != nil {
		return nil, err
	}
	distVal := dist.DenseView()

	active := graphblas.ScratchVector[float64](ws, slotActive, n)
	active.Clear()
	if err := active.SetElement(source, 0); err != nil {
		return nil, err
	}
	// cand is each round's replace-mode MxV output: never read stale.
	cand := graphblas.ScratchVector[float64](ws, slotCand, n)

	desc, plan := ws.PlannedDescriptor(graphblas.Descriptor{Transpose: true, CostModel: opt.Model, Context: opt.Context})
	// The relax fold: a candidate that improves lowers dist in place and
	// survives into the next active set. Select calls it once per candidate
	// on this goroutine, so the write needs no synchronisation.
	relax := func(i int, d float64) bool {
		if d < distVal[i] {
			distVal[i] = d
			return true
		}
		return false
	}
	// Partial result for aborted runs: the distances relaxed so far, valid
	// upper bounds on the true distances (Bellman-Ford only ever improves).
	snapshot := func() []float64 {
		out := resultBuf(opt.Out, n)
		copy(out, distVal)
		return out
	}

	for round := 0; round < n && active.NVals() > 0; round++ {
		// Round boundary: a cancelled context aborts within one round,
		// returning the partial distances.
		if err := graphblas.CheckContext(opt.Context); err != nil {
			return snapshot(), err
		}
		start := time.Now()
		// cand = Aᵀ min.+ active: tentative distances through last round's
		// improvements.
		if _, err := graphblas.Into(cand).With(desc).MxV(sr, a, active); err != nil {
			return snapshot(), err
		}
		if plan.Dir == core.Pull {
			// 2-phase: once pull, stay pull (the SSSP workfront does not
			// shrink back the way BFS's does).
			desc.Direction = graphblas.ForcePull
		}
		// Relax in one pass: the new active set is the candidates that
		// improve, and selecting them lowers dist.
		if err := graphblas.Into(active).With(desc).Select(relax, cand); err != nil {
			return snapshot(), err
		}
		if opt.Trace != nil {
			opt.Trace(IterStats{
				Iteration:   round + 1,
				Direction:   plan.Dir,
				FrontierNNZ: active.NVals(),
				Duration:    time.Since(start),
				PushCost:    plan.PushCost,
				PullCost:    plan.PullCost,
				PredictedNs: plan.PredictedNs,
				MeasuredNs:  plan.MeasuredNs,
			})
		}
	}
	return snapshot(), nil
}
