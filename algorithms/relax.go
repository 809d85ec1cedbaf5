package algorithms

import (
	"time"

	"pushpull/graphblas"
)

// A relaxation run's workspace slots; only a reverse pass takes the fourth.
const (
	slotState = iota
	slotActive
	slotCand
	slotRevCand
)

// relax runs a frontier relaxation to its fixed point, the loop SSSP and
// ConnectedComponentsRun share, and returns the state in resultBuf(out, n).
// Each round multiplies the active set into candidates, Aᵀ ⊕.⊗ active under
// desc (and A ⊕.⊗ active under rev when rev is non-nil: CC's reverse pass),
// then a Select fold lowers the state wherever a candidate is strictly
// smaller and keeps exactly those vertices as the next active set.
//
// init fills the dense state and sets the first active set so that every
// vertex j outside it has state[j] ⊗ a_ji ≥ state[i] for its neighbours i;
// the fold keeps that true. So with pullState a pull reads the state in
// place of active (operand reuse): a non-active neighbour's candidate fails
// the strict <, and the same improvements are selected, bit for bit.
//
// each, when non-nil, runs after every round with its number (from 1), its
// start time and the new active set, and may change desc for the next one.
// A done desc.Context (checked per round) or a failed kernel returns the
// state so far, upper bounds on the fixed point, with the error.
func relax[T float64 | uint32](ws *graphblas.Workspace, sr graphblas.Semiring[T], a *graphblas.Matrix[T], desc, rev *graphblas.Descriptor, pullState bool, out []T,
	init func(state, active *graphblas.Vector[T]), each func(round int, start time.Time, active *graphblas.Vector[T])) ([]T, error) {
	n := a.NRows()
	state := graphblas.ScratchVector[T](ws, slotState, n)
	active := graphblas.ScratchVector[T](ws, slotActive, n)
	active.Clear() // and with it the planner hysteresis the MxV input carries
	init(state, active)
	val := state.DenseView()
	// Select calls the fold once per candidate, in order, on this goroutine.
	fold := func(i int, x T) bool {
		if x < val[i] {
			val[i] = x
			return true
		}
		return false
	}
	snapshot := func() []T { res := resultBuf(out, n); copy(res, val); return res }

	// The candidates are replace-mode MxV outputs: never read stale.
	cand := graphblas.ScratchVector[T](ws, slotCand, n)
	fwd, next := graphblas.Into(cand).With(desc), graphblas.Into(active).With(desc)
	var rcand *graphblas.Vector[T]
	var bwd, rnext graphblas.OpSpec[T]
	if rev != nil {
		rcand = graphblas.ScratchVector[T](ws, slotRevCand, n)
		bwd, rnext = graphblas.Into(rcand).With(rev), graphblas.Into(rcand).With(desc)
	}
	if pullState {
		fwd, bwd = fwd.PullInput(state), bwd.PullInput(state)
	}
	for round := 1; round <= n && active.NVals() > 0; round++ {
		if err := graphblas.CheckContext(desc.Context); err != nil {
			return snapshot(), err
		}
		start := time.Now()
		if _, err := fwd.MxV(sr, a, active); err != nil {
			return snapshot(), err
		}
		if rcand != nil {
			if _, err := bwd.MxV(sr, a, active); err != nil {
				return snapshot(), err
			}
		}
		if err := next.Select(fold, cand); err != nil {
			return snapshot(), err
		}
		if rcand != nil {
			// Fold rcand after cand: a survivor is below the value cand
			// left, so overwriting active with it keeps the min of both.
			if err := rnext.Select(fold, rcand); err != nil {
				return snapshot(), err
			}
			if err := next.AssignVector(rcand); err != nil {
				return snapshot(), err
			}
		}
		if each != nil {
			each(round, start, active)
		}
	}
	return snapshot(), nil
}
