package graphblas

import (
	"time"

	"pushpull/internal/core"
	"pushpull/internal/sparse"
)

// Planner is the algorithm-facing handle on the direction planner: bind it
// to a matrix (and orientation) once, then ask it for a Plan each
// iteration. Algorithms that orchestrate their own traversal — BFS needs
// the direction *before* the matvec to pick operand reuse — use a Planner
// and then pin the decision through Descriptor.Direction; plain MxV
// callers get the same machinery implicitly under Direction == Auto.
//
// A zero SwitchPoint selects the edge-based cost model (push cost = Σ
// frontier out-degrees × merge log factor, pull cost = rows × average
// degree × effective-mask density); a positive SwitchPoint selects the
// paper's legacy nnz/n ratio rule at that crossover. Hysteresis and the
// feedback corrector live in the Planner, so one Planner serves one
// traversal: build a fresh one for the next.
type Planner[T comparable] struct {
	rowG, colG  *sparse.CSR[T]
	outDim      int
	avgDeg      float64
	switchPoint float64
	state       core.PlanState
	model       core.CostModel
	corr        core.Corrector
	pullKind    core.VecKind
}

// NewPlanner builds a planner for products against a (or aᵀ when transpose
// is set, the BFS orientation). switchPoint == 0 selects the cost model.
func NewPlanner[T comparable](a *Matrix[T], transpose bool, switchPoint float64) *Planner[T] {
	rowG, colG := a.CSR(), a.CSC()
	if transpose {
		rowG, colG = colG, rowG
	}
	return &Planner[T]{
		rowG:        rowG,
		colG:        colG,
		outDim:      rowG.Rows,
		avgDeg:      core.AvgRowDegree(rowG.NNZ(), rowG.Rows),
		switchPoint: switchPoint,
		pullKind:    core.KindBitmap,
	}
}

// WithModel installs a calibrated cost model (nil is a no-op, keeping the
// unit model), returning the planner for chaining. With a model installed,
// Plan records PredictedNs and the feedback corrector — primed by Observe —
// scales subsequent estimates by the measured/predicted ratio.
func (p *Planner[T]) WithModel(m *core.CostModel) *Planner[T] {
	if m != nil {
		p.model = *m
	}
	return p
}

// SetPullProbeKind tells a calibrated model which storage kind the pull
// kernel would probe as its input — KindBitset when the algorithm reuses a
// word-packed visited set as the pull operand (BFS Optimization 4),
// KindBitmap (the default) otherwise.
func (p *Planner[T]) SetPullProbeKind(k core.VecKind) { p.pullKind = k }

// Observe feeds one timed kernel invocation back into the planner's
// corrector: plan must be the record the decision was made on and d the
// kernel's measured wall-clock. Unpriced plans (unit model, forced
// directions) are ignored, so callers can report every iteration
// unconditionally.
func (p *Planner[T]) Observe(plan core.Plan, d time.Duration) {
	p.corr.Observe(plan.Dir, plan.PredictedNs, float64(d.Nanoseconds()))
}

// Plan decides the direction for a frontier with nnz stored elements.
// frontierInd, when non-nil, is the frontier's sparse index list: push
// cost is then the exact Σ outdeg read off the push-side CSR in O(nnz);
// pass nil (bitmap/dense frontiers) for the nnz·d̄ estimate. maskAllowed is
// the number of output rows the effective mask lets through (BFS:
// unvisited count), or a negative value for an unmasked product.
func (p *Planner[T]) Plan(frontierInd []uint32, nnz, maskAllowed int) core.Plan {
	in := core.PlanInput{
		NNZ:           nnz,
		N:             p.colG.Rows,
		OutRows:       p.outDim,
		PushEdges:     -1,
		AvgDeg:        p.avgDeg,
		MaskAllowFrac: 1,
		SwitchPoint:   p.switchPoint,
		InKind:        p.pullKind,
		Model:         p.model,
	}
	if p.model.Calibrated() {
		in.Correct = &p.corr
	}
	if frontierInd != nil {
		edges := 0
		for _, i := range frontierInd {
			edges += p.colG.RowLen(int(i))
		}
		in.PushEdges = float64(edges)
	}
	if maskAllowed >= 0 && p.outDim > 0 {
		in.MaskAllowFrac = float64(maskAllowed) / float64(p.outDim)
	}
	return core.DecideDirection(in, &p.state)
}
