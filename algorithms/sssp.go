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
// enjoys. The rounds are the relaxation loop SSSP shares with
// ConnectedComponentsRun (relax.go). SSSP's pull reads the sparse active
// set, not dist: that would be exact too, but the planner prices a
// dense-input pull near zero, pulls early, and doubles RGG's time.
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
	// The distances and active set are the workspace's float64 slots, the
	// ones PageRank keeps its ranks and next ranks in, so a pinned workspace
	// carries one set for both.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	desc, plan := ws.PlannedDescriptor(graphblas.Descriptor{Transpose: true, CostModel: opt.Model, Context: opt.Context})
	init := func(dist, active *graphblas.Vector[float64]) {
		dist.Fill(math.Inf(1))
		dist.DenseView()[source] = 0
		_ = active.SetElement(source, 0) // cannot fail: source is in range
	}
	return relax(ws, graphblas.MinPlusFloat64(), a, desc, nil, false, opt.Out, init,
		func(round int, start time.Time, active *graphblas.Vector[float64]) {
			if plan.Dir == core.Pull {
				desc.Direction = graphblas.ForcePull // 2-phase: once pull, stay pull
			}
			if opt.Trace != nil {
				opt.Trace(iterStats(round, plan, active, start))
			}
		})
}
