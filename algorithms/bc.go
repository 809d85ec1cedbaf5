package algorithms

import (
	"context"
	"fmt"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// BCOptions configures BetweennessCentrality.
type BCOptions struct {
	// Model prices the matvec pipeline's direction planner with calibrated
	// coefficients: both sweeps' matvecs run with Direction == Auto, so the
	// model, and with it the run's one feedback corrector, rides the
	// workspace's two descriptors into the MxV pipeline's planner. Nil keeps
	// the unit model.
	Model *core.CostModel
	// Context, when non-nil, makes the run abortable: the pipeline checks it
	// between kernel phases, the parallel kernels stop claiming chunks once
	// it is done, and the per-source loop checks it at each sweep-level
	// boundary. A cancelled run returns a wrapped graphblas.ErrCancelled
	// along with the centrality accumulated over the sources completed so
	// far (a partial batch — exact for those sources, missing the rest).
	Context context.Context
}

// BetweennessCentrality computes Brandes-style betweenness centrality
// accumulated over the given source vertices (batched BC, the paper's
// Section 5.6 masking example from the GraphBLAS API paper). Pass all
// vertices for exact BC or a sample for approximate BC.
//
// The forward sweep is a BFS over the plus.second semiring — the frontier
// carries shortest-path *counts* and the ¬visited mask supplies output
// sparsity exactly as in Algorithm 1. The backward sweep pushes dependency
// contributions level by level, masked to the preceding level's pattern,
// so every matvec in both sweeps benefits from masking.
func BetweennessCentrality(a *graphblas.Matrix[bool], sources []int, opt BCOptions) ([]float64, error) {
	ctx, model := opt.Context, opt.Model
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: BC needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("algorithms: BC source %d out of range [0,%d)", s, n)
		}
	}
	counts := graphblas.PatternAs[float64](a)
	sr := graphblas.PlusSecondFloat64()
	bc := make([]float64, n)

	// One workspace serves every matvec of every source's two sweeps.
	ws := graphblas.AcquireWorkspace(n, n)
	defer ws.Release()
	// Under a model both sweeps feed the run's one corrector.
	fwdDesc := runDescriptor(ws, graphblas.Descriptor{Transpose: true, StructuralComplement: true, CostModel: model, Context: ctx})
	backDesc := ws.SecondDescriptor(graphblas.Descriptor{CostModel: model, Context: ctx})

	// The O(n) working vectors are workspace slots, cleared before use. The
	// per-level frontiers are not: the backward sweep reads every level, so
	// each is its own copy.
	const (
		slotSigma = iota // float64 slots
		slotDelta
		slotFrontier
		slotC
		slotContrib
	)
	const slotSrcMask = 0 // bool slot
	// The c and contrib vectors are rebuilt each backward level, so one
	// pair serves every source.
	c := graphblas.ScratchVector[float64](ws, slotC, n)
	c.Clear()
	contrib := graphblas.ScratchVector[float64](ws, slotContrib, n)
	contrib.Clear()

	for _, s := range sources {
		// Forward: BFS's level loop over the frontier's shortest-path
		// counts. σ is the visited set: its pattern is the ¬mask and the
		// pull input (an unvisited row's visited in-neighbours are exactly
		// its frontier ones), and the loop's merge writes each level's
		// counts into it.
		sigmaVec := graphblas.ScratchVector[float64](ws, slotSigma, n)
		sigmaVec.Clear()
		sigmaVec.ToBitset()
		_ = sigmaVec.SetElement(s, 1)
		f := graphblas.ScratchVector[float64](ws, slotFrontier, n)
		f.Clear()
		_ = f.SetElement(s, 1)
		var levels []*graphblas.Vector[float64]
		step := graphblas.Into(f).Mask(sigmaVec).PullInput(sigmaVec).With(fwdDesc)
		if err := sweep(ctx, step, sr, counts, f, sigmaVec, func(int, time.Time) error {
			if f.NVals() > 0 {
				levels = append(levels, f.Dup())
			}
			return nil
		}); err != nil {
			return bc, err
		}
		sigma := sigmaVec.DenseView()

		// Backward: dependency accumulation δ(u) = σ(u)·Σ_{v∈succ(u)} (1+δ(v))/σ(v).
		deltaVec := graphblas.ScratchVector[float64](ws, slotDelta, n)
		deltaVec.Fill(0)
		delta := deltaVec.DenseView()
		weight := func(i int, _ float64) float64 { return (1 + delta[i]) / sigma[i] }
		srcMask := graphblas.ScratchVector[bool](ws, slotSrcMask, n)
		srcMask.Clear()
		_ = srcMask.SetElement(s, true)
		for t := len(levels) - 1; t >= 0; t-- {
			// Sweep-level boundary, as in the forward sweep.
			if err := graphblas.CheckContext(ctx); err != nil {
				return bc, err
			}
			// c(v) = (1+δ(v))/σ(v) over level t's pattern — an indexed
			// apply instead of a hand-rolled rebuild loop.
			if err := graphblas.Into(c).With(backDesc).ApplyIndexed(weight, levels[t]); err != nil {
				return bc, err
			}
			// Contributions flow backwards along edges: u→v contributes
			// c(v) to u, i.e. contrib = A·c, restricted to the previous
			// level (or the source at t == 0) — the level vector itself is
			// the mask, no Boolean copy.
			var prevMask graphblas.MaskVector = srcMask
			if t > 0 {
				prevMask = levels[t-1]
			}
			if _, err := graphblas.Into(contrib).Mask(prevMask).With(backDesc).MxV(sr, counts, c); err != nil {
				return bc, err
			}
			contrib.Iterate(func(i int, x float64) bool {
				delta[i] += sigma[i] * x
				return true
			})
		}
		for i := 0; i < n; i++ {
			if i != s {
				bc[i] += delta[i]
			}
		}
	}
	return bc, nil
}
