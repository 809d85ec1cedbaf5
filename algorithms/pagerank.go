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
	// asymptotic saving proportional to the converged fraction. A frozen
	// vertex keeps its rank, and stops counting toward the L1 delta.
	// Results match the exact iteration to within the freeze threshold.
	// Zero runs the exact power iteration. A vertex freezes after two
	// consecutive sub-threshold deltas.
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
// rows when opt.AdaptiveTol > 0. A round is one pull matvec and one pass:
// the matvec sums the in-neighbours' scaled ranks, and the pass writes
// every rank in place while it folds the L1 delta, the freeze streaks, and
// the next round's scaled input and dangling mass.
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
	// by out-degree leaves the matvec needing nothing from the matrix but
	// its pattern, so it runs plus.second over an O(1) view of A — no
	// weighted copy, no transpose.
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
		slotSums = iota
		slotInvDeg
		slotScaled
	)
	// The ranks live in the result buffer, updated in place by each round's
	// pass: every return — normal, cancelled, or faulted — reports the last
	// completed iterate, since the pass runs only after the round's matvec
	// succeeded and nothing interrupts it. The matvec reads the scaled
	// vector, which is value-complete, so it lives in the true Dense format
	// and the pull kernel's inner loop skips the probe.
	rv := resultBuf(opt.Out, n)
	res.Ranks = rv
	r0 := 1 / float64(n)
	sums := graphblas.ScratchVector[float64](ws, slotSums, n) // the matvec's output, overwritten each round
	invDeg := graphblas.ScratchVector[float64](ws, slotInvDeg, n)
	invDeg.Fill(0) // sinks stay 0: no edge ever reads their scaled rank
	inv := invDeg.DenseView()
	scaled := graphblas.ScratchVector[float64](ws, slotScaled, n) // r ⊘ outdeg
	scaled.Fill(0)
	sv := scaled.DenseView()
	// Dangling mass: ranks parked on sink vertices redistribute uniformly.
	dangling := 0.0
	for i := 0; i < n; i++ {
		if d := pat.Ptr[i+1] - pat.Ptr[i]; d > 0 {
			inv[i] = 1 / float64(d)
		} else {
			dangling += r0
		}
		rv[i], sv[i] = r0, inv[i]*r0
	}

	desc := runDescriptor(ws, graphblas.Descriptor{Transpose: true, Direction: graphblas.ForcePull, Context: opt.Context})

	// Adaptive-only state: the mask is word-packed — the masked matvec
	// reads it zero-copy as bitset words, freezing a vertex is one bit
	// clear, and the planner popcounts its density exactly.
	var active *graphblas.Vector[bool]
	var aw []uint64
	var streak []int // consecutive sub-threshold deltas per vertex
	activeRows := n
	if adaptive {
		// The mask takes BFS's bool visited slot, word-packed like it.
		const slotActive, slotStreak = 1, 0
		active = graphblas.ScratchVector[bool](ws, slotActive, n)
		active.Fill(true)
		_, aw = active.BitsetView()
		streakVec := graphblas.ScratchVector[int](ws, slotStreak, n)
		streakVec.Fill(0)
		streak = streakVec.DenseView()
	}

	// α as a float64 variable: the arithmetic below rounds it to float64
	// before it computes, where constant arithmetic would be exact.
	damp := float64(damping)
	danglingBase := (1 - damp) / float64(n)
	for iter := 0; iter < opt.MaxIter; iter++ {
		// Round boundary: a cancelled context aborts within one iteration,
		// leaving the last completed iterate as the partial result.
		if err = graphblas.CheckContext(opt.Context); err != nil {
			return res, err
		}
		res.Iterations++
		teleport := danglingBase + damp*dangling/float64(n)

		// sums⟨active⟩ = Aᵀ plus.second scaled: a row the matvec skipped
		// (frozen, or no in-edges) is absent from sums.
		step := graphblas.Into(sums).With(desc)
		if adaptive {
			step = step.Mask(active)
		}
		res.MaskedMatvecRows += int64(activeRows) // n in the exact variant
		if _, err := step.MxV(sr, wm, scaled); err != nil {
			return res, err
		}

		// One pass in index order: a live row becomes the teleport plus
		// α·Σ where the matvec pulled a sum (the explicit conversion rounds
		// the product on its own, so no platform fuses the two into one
		// multiply-add), the teleport alone where it did not; a frozen row
		// keeps its rank. Convergence, freezing and the next round's input
		// are folded on the way.
		yv, yw := sums.BitsetView()
		delta := 0.0
		dangling = 0
		for i, r := range rv {
			if !adaptive || core.BitsetGet(aw, i) {
				next := teleport
				if core.BitsetGet(yw, i) {
					next += float64(damp * yv[i])
				}
				d := math.Abs(next - r)
				delta += d
				if adaptive {
					if d < opt.AdaptiveTol {
						if streak[i]++; streak[i] >= freezeAfter {
							core.BitsetUnset(aw, i)
							activeRows--
						}
					} else {
						streak[i] = 0
					}
				}
				rv[i], r = next, next
			}
			if inv[i] == 0 {
				dangling += r
			}
			sv[i] = inv[i] * r
		}
		if delta < opt.Tol || (adaptive && activeRows == 0) {
			break
		}
	}
	return res, nil
}
