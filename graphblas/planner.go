package graphblas

import (
	"math"

	"pushpull/internal/core"
	"pushpull/internal/sparse"
)

// Planner prices one direction decision outside an MxV call. No algorithm
// uses it: each plans inside MxV under Direction == Auto, with operand
// reuse expressed as OpSpec.PullInput. It stays only because bench/ppload
// times it as graphblas.plan_ns, and Plan runs the same decision function
// MxV's planner does, so that gauge times the path MxV runs. It goes once
// that benchmark reads Descriptor.Plan from an Auto MxV instead.
//
// A zero SwitchPoint selects the edge-based cost model, a positive one the
// paper's legacy nnz/n ratio rule at that crossover. Hysteresis lives in
// the Planner, so one Planner serves one traversal.
type Planner[T comparable] struct {
	colG        *sparse.CSR[T]
	outDim      int
	avgDeg      float64
	switchPoint float64
	state       core.PlanState
	model       core.CostModel
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
		colG:        colG,
		outDim:      rowG.Rows,
		avgDeg:      core.AvgRowDegree(rowG.NNZ(), rowG.Rows),
		switchPoint: switchPoint,
		pullKind:    core.KindBitmap,
	}
}

// WithModel installs a calibrated cost model (nil is a no-op, keeping the
// unit model), returning the planner for chaining. With a model installed,
// Plan records PredictedNs.
func (p *Planner[T]) WithModel(m *core.CostModel) *Planner[T] {
	if m != nil {
		p.model = *m
	}
	return p
}

// SetPullProbeKind tells a calibrated model which storage kind the pull
// kernel would probe as its input — KindBitset for a word-packed pull
// input, KindBitmap (the default) otherwise.
func (p *Planner[T]) SetPullProbeKind(k core.VecKind) { p.pullKind = k }

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
	return decide(in, p.colG, frontierInd, math.MaxInt, maskAllowed, &p.state)
}
