package algorithms

import (
	"context"
	"fmt"
	"math"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// PageRankOptions configures PageRank, exact or adaptive.
type PageRankOptions struct {
	// Tol is the per-iteration L1 convergence threshold (default 1e-7).
	Tol float64
	// MaxIter bounds the number of power iterations (default 100).
	MaxIter int
	// AdaptiveTol, when > 0, selects the masked variant after Kamvar et al.
	// (the paper's Section 5.6 masking example): a vertex whose rank moved
	// less than AdaptiveTol is frozen, and the matvec runs masked to the
	// still-active rows only — output sparsity known a priori, an
	// asymptotic saving proportional to the converged fraction. Results
	// match the exact iteration to within the freeze threshold. Zero runs
	// the exact power iteration. A vertex freezes after two consecutive
	// sub-threshold deltas.
	AdaptiveTol float64
	// Model is ignored: PageRank's matvec is pinned to pull and records no
	// plan, so no estimate a model would price is ever read.
	Model *core.CostModel
	// Workspace, when non-nil, pins the caller's scratch arena for the run
	// instead of acquiring a pooled one (see BFSOptions.Workspace): not
	// released by PageRank, not shareable between concurrent operations.
	Workspace *graphblas.Workspace
	// Out, when it has exactly n elements, receives the ranks: the result
	// aliases the buffer; the caller may reuse it only after it is done with
	// the result (package docs, "Result buffers").
	Out []float64
	// Context, when non-nil, makes the power iteration abortable: the
	// pipeline checks it between kernel phases, the parallel kernels stop
	// claiming chunks once it is done, and the iteration loop checks it at
	// each round boundary. A cancelled run returns a wrapped
	// graphblas.ErrCancelled along with the partial result — the last
	// completed iterate's ranks and the rounds finished so far. The
	// live-path check is allocation-free.
	Context context.Context
}

// damping is the teleport factor α.
const damping = 0.85

// freezeAfter is how many *consecutive* sub-threshold deltas a vertex needs
// before the adaptive variant freezes it. Early power iterations move mass
// in waves, so a single small delta can be transient; requiring a streak
// keeps the adaptive result close to the exact one.
const freezeAfter = 2

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	return o
}

// PageRankResult reports the ranks and convergence behaviour.
type PageRankResult struct {
	Ranks      []float64
	Iterations int
	// MaskedMatvecRows counts, summed over iterations, how many output
	// rows the (masked) matvec actually computed — the work-saving metric
	// the adaptive variant improves.
	MaskedMatvecRows int64
}

// PageRank runs the dense power iteration
// r ← α·Pᵀr + (1-α)/n + dangling mass, where P is the row-stochastic walk
// matrix, until the L1 delta drops below Tol — masked to the unfrozen
// rows when opt.AdaptiveTol > 0.
func PageRank(a *graphblas.Matrix[bool], opt PageRankOptions) (res PageRankResult, err error) {
	n := a.NRows()
	if a.NCols() != n {
		return PageRankResult{}, fmt.Errorf("algorithms: PageRank needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if n == 0 {
		return PageRankResult{}, nil
	}
	opt = opt.withDefaults()
	adaptive := opt.AdaptiveTol > 0

	// Ranks flow along y = Aᵀ·(r ⊘ outdeg): pre-dividing the rank vector
	// by out-degree (one O(n) pass per iteration) leaves the matvec needing
	// nothing from the matrix but its pattern, so it runs plus.second over
	// an O(1) view of A — no weighted copy, no transpose.
	pat := a.CSR()
	wm := graphblas.PatternAs[float64](a)
	sr := graphblas.PlusSecondFloat64()

	// Pin one workspace across the power iteration so the steady state
	// allocates nothing; the iteration's vectors are the workspace's too,
	// so a caller that pins one across runs pays for them once.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	const (
		slotRanks = iota
		slotNewRanks
		slotInvDeg
		slotScaled
	)
	// The ranks vector is value-complete, so it lives in the true Dense
	// format: the pull kernel consumes it through a presence-free view and
	// its inner loop skips the probe entirely.
	ranks := graphblas.ScratchVector[float64](ws, slotRanks, n)
	ranks.Fill(1 / float64(n))
	newRanks := graphblas.ScratchVector[float64](ws, slotNewRanks, n) // next iterate, swapped with ranks
	newRanks.Fill(0)
	invDeg := graphblas.ScratchVector[float64](ws, slotInvDeg, n)
	invDeg.Fill(0) // sinks stay 0: no edge ever reads their scaled rank
	inv := invDeg.DenseView()
	for i := 0; i < n; i++ {
		if d := pat.Ptr[i+1] - pat.Ptr[i]; d > 0 {
			inv[i] = 1 / float64(d)
		}
	}
	scaled := graphblas.ScratchVector[float64](ws, slotScaled, n) // r ⊘ outdeg
	scaled.Fill(0)
	sv := scaled.DenseView()

	desc := runDescriptor(ws, graphblas.Descriptor{Transpose: true, Direction: graphblas.ForcePull, Context: opt.Context})

	// Adaptive-only state: the carry mask is word-packed — the masked
	// matvec and the ¬active carry-assign read it zero-copy as bitset
	// words, freezing a vertex is one bit clear, and the planner popcounts
	// its density exactly.
	var active *graphblas.Vector[bool]
	var aw []uint64
	var streak []int // consecutive sub-threshold deltas per vertex
	var carryDesc *graphblas.Descriptor
	activeRows := n
	if adaptive {
		// The mask takes BFS's bool visited slot, word-packed like it.
		const slotActive, slotStreak = 1, 0
		active = graphblas.ScratchVector[bool](ws, slotActive, n)
		active.Fill(true)
		active.ToBitset()
		_, aw = active.BitsetView()
		streakVec := graphblas.ScratchVector[int](ws, slotStreak, n)
		streakVec.Fill(0)
		streak = streakVec.DenseView()
		// Frozen rows carry their old rank: newRanks⟨¬active⟩ = ranks.
		carryDesc = ws.SecondDescriptor(graphblas.Descriptor{StructuralComplement: true, Context: opt.Context})
	}

	res = PageRankResult{}
	// α as a float64 variable: the arithmetic below rounds it to float64
	// before it computes, where constant arithmetic would be exact.
	damp := float64(damping)
	danglingBase := (1 - damp) / float64(n)
	// Every return — normal, cancelled, or faulted — reports the last
	// completed iterate, so an aborted run still yields usable partial ranks.
	defer func() {
		out := resultBuf(opt.Out, n)
		rv := ranks.DenseView()
		copy(out, rv)
		res.Ranks = out
	}()
	// tele + α·Σ: the explicit conversion rounds the product on its own, so
	// no platform fuses the two into one multiply-add.
	addDamped := func(tele, sum float64) float64 { return tele + float64(damp*sum) }
	for iter := 0; iter < opt.MaxIter; iter++ {
		// Round boundary: a cancelled context aborts within one iteration,
		// leaving the last completed iterate as the partial result.
		if err = graphblas.CheckContext(opt.Context); err != nil {
			return res, err
		}
		res.Iterations++
		rv := ranks.DenseView()
		// Dangling mass: ranks parked on sink vertices redistribute
		// uniformly.
		dangling := 0.0
		for i := 0; i < n; i++ {
			if pat.Ptr[i+1] == pat.Ptr[i] {
				dangling += rv[i]
			}
		}
		teleport := danglingBase + damp*dangling/float64(n)

		for i, r := range rv {
			sv[i] = inv[i] * r
		}
		// newRanks = teleport, then newRanks += α·(Aᵀ plus.second scaled) as
		// one accumulating matvec: every row gets the teleport plus its
		// (possibly absent) pull contribution.
		newRanks.Fill(teleport)
		step := graphblas.Into(newRanks).Accum(addDamped).With(desc)
		rows := n
		if adaptive {
			step, rows = step.Mask(active), activeRows
		}
		res.MaskedMatvecRows += int64(rows)
		if _, err := step.MxV(sr, wm, scaled); err != nil {
			return res, err
		}
		if adaptive {
			// newRanks⟨¬active⟩ = ranks: frozen rows keep their old rank.
			if err := graphblas.Into(newRanks).Mask(active).With(carryDesc).AssignVector(ranks); err != nil {
				return res, err
			}
		}

		// Convergence and freeze bookkeeping on the old/new pair.
		nv := newRanks.DenseView()
		delta := 0.0
		for i := 0; i < n; i++ {
			if adaptive && !core.BitsetGet(aw, i) {
				continue // frozen: rank carries over unchanged
			}
			d := math.Abs(nv[i] - rv[i])
			delta += d
			if adaptive {
				if d < opt.AdaptiveTol {
					streak[i]++
					if streak[i] >= freezeAfter {
						core.BitsetUnset(aw, i)
						activeRows--
					}
				} else {
					streak[i] = 0
				}
			}
		}
		ranks, newRanks = newRanks, ranks
		if delta < opt.Tol || (adaptive && activeRows == 0) {
			break
		}
	}
	return res, nil // Ranks copied out by the deferred snapshot
}
