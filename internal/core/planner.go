package core

import "math"

// This file implements the standalone direction planner that replaces the
// "format follows conversion" coupling of the paper's Section 6.3: instead
// of letting the sparse↔dense switch of the input vector pick the kernel,
// the planner compares an *edge-based* estimate of each direction's work —
// the approach of GraphBLAST (Yang, Buluç, Owens) and the model of Besta et
// al., "To Push or To Pull", where the crossover depends on edges touched,
// not vertex counts — and storage format then follows the chosen direction.
//
//	push cost ≈ Σ_{i∈frontier} outdeg(i) · log₂ nnz(f)
//	pull cost ≈ rows · avg-degree, discounted by the effective mask density
//
// The push sum is read directly off CSC.Ptr in O(nnz(u)); the log factor is
// Section 3.1's heap-merge term for Table 1 row 3, kept as the paper states
// it although the push that runs radix-sorts in ⌈log₂₅₆ M⌉ passes. When the
// push would scatter into a bitmap instead (BitmapOutFraction), it is
// priced per gathered edge plus one clear per output row. The pull product
// is Table 1 rows 1–2: an unmasked pull scans every row, a masked pull only
// the rows the effective mask allows. Hysteresis: a switch away from the
// current direction additionally requires the frontier to be moving the
// right way (growing to go pull, shrinking to go push), so a frontier
// hovering at the crossover does not flap — and with it, neither does the
// vector's storage format.
//
// This is the one uncalibrated rule. Scored against the paper's nnz/n
// ratio rule and SuiteSparse's bfs_pushpull rule on kron, grid, RGG and
// uniform graphs for BFS, SSSP and CC frontiers (both kernels timed at
// every level), it had the lowest total regret; the ratio rule wins mainly
// on kron and lives on in the Gunrock-style comparator
// (internal/frameworks). Its weights are UnitModel, a price vector in RAM
// accesses; PlanInput.Model replaces it with per-machine nanosecond
// coefficients (costmodel.go, fitted by internal/calibrate), and
// PlanInput.Correct folds measured kernel times back into the estimates
// between iterations.

// Plan rule names, recorded for traces so decision quality can be audited.
const (
	// RuleForced marks a plan pinned by ForcePush/ForcePull.
	RuleForced = "forced"
	// RuleCostModel marks the edge-based cost comparison.
	RuleCostModel = "cost-model"
)

// Plan is one direction decision plus the evidence it was made on. MxV
// surfaces it through Descriptor.Plan and BFS through IterStats, so the
// harness can plot estimated costs against measured runtimes.
type Plan struct {
	// Dir is the chosen kernel orientation.
	Dir Direction
	// PushCost and PullCost are the model's work estimates, set on every
	// planned or forced plan (the direction is their comparison). Under
	// UnitModel (zero PlanInput.Model) they are RAM accesses — comparable
	// to each other, not to wall-clock; under a calibrated CostModel they
	// are nanosecond estimates, comparable to MeasuredNs.
	PushCost, PullCost float64
	// PredictedNs is the chosen direction's *uncorrected* model estimate in
	// nanoseconds — set only when the decision was priced by a calibrated
	// CostModel (zero under the unit model, whose costs are not
	// wall-clock). The corrector's scaling is deliberately excluded: the
	// feedback loop measures the raw model's error, so its EWMA converges
	// on the true measured/predicted ratio.
	PredictedNs float64
	// MeasuredNs is the kernel invocation's measured wall-clock, filled in
	// by the execute path after the kernel ran (zero when untimed). The
	// difference against PredictedNs is the prediction error the feedback
	// Corrector converges on.
	MeasuredNs float64
	// MaskAllowFrac is the effective-mask density the pull cost was
	// discounted by: exact (a popcount over the mask's packed words, or a
	// sparse mask's list length) when the caller could read it off the
	// storage, an estimate otherwise; 1 with no mask.
	MaskAllowFrac float64
	// FrontierNNZ and N snapshot the input vector the plan was made for.
	FrontierNNZ, N int
	// Growing/Shrinking report the frontier trend since the previous plan
	// (both true when unprimed).
	Growing, Shrinking bool
	// PushOutBitmap advises the push kernel to scatter straight into a
	// bitmap output (no radix sort) because the estimated output is dense
	// enough that sorting would dominate.
	PushOutBitmap bool
	// Rule names the decision path: forced or cost-model.
	Rule string
}

// PlanState is the between-call memory the planner's hysteresis needs: the
// previous decision and the previous frontier population. The zero value is
// unprimed (first decision is purely cost-based).
type PlanState struct {
	PrevDir Direction
	PrevNNZ int
	Primed  bool
}

// Reset clears the state (a new traversal starts).
func (s *PlanState) Reset() { *s = PlanState{} }

// PlanInput carries everything one direction decision needs.
type PlanInput struct {
	// NNZ and N describe the input vector (frontier).
	NNZ, N int
	// OutRows is the output dimension (rows the pull kernel would scan).
	OutRows int
	// PushEdges is Σ outdeg over the frontier, read off CSC.Ptr when the
	// frontier is sparse; pass a negative value to have the planner
	// estimate it as NNZ·AvgDeg.
	PushEdges float64
	// AvgDeg is the mean row population of the pull-side matrix.
	AvgDeg float64
	// MaskAllowFrac is the fraction of output rows the effective mask
	// allows: 1 with no mask, nnz(m)/OutRows for a plain mask,
	// 1−nnz(m)/OutRows under structural complement. The pull cost is
	// discounted by it.
	MaskAllowFrac float64
	// Force pins the direction (descriptor override); nil means decide.
	Force *Direction
	// InKind is the storage kind of the input the pull would read. A
	// calibrated model prices pull's per-edge probe by it (single-bit probe
	// for bitset and for sparse inputs, which pack into words; probe-free
	// for dense). UnitModel prices every kind alike.
	InKind VecKind
	// Model prices the terms in nanoseconds when calibrated; the zero
	// value selects UnitModel.
	Model CostModel
	// Correct, when non-nil, multiplies each direction's estimate by the
	// corrector's measured/predicted EWMA before they are compared — the
	// online feedback loop. Inert until a calibrated model primes it.
	Correct *Corrector
}

// BitmapOutFraction is the estimated-output density above which the push
// kernel scatters into a bitmap instead of radix-sorting a sparse result:
// the scatter is O(edges) against the sort's O(edges·log M), so once the
// gathered edges approach a quarter of the output dimension the sort-free
// path wins even after paying the O(n) output clear. Callers that only
// need the scatter decision may stop summing frontier degrees once this
// fraction of OutRows is reached.
const BitmapOutFraction = 0.25

// DecideDirection runs the planner: a forced direction if one is set, else
// the edge cost model. st is updated with this decision (pass nil for a
// stateless, hysteresis-free decision).
func DecideDirection(in PlanInput, st *PlanState) Plan {
	p := Plan{FrontierNNZ: in.NNZ, N: in.N, Growing: true, Shrinking: true}
	if st != nil && st.Primed {
		p.Growing = in.NNZ >= st.PrevNNZ
		p.Shrinking = in.NNZ <= st.PrevNNZ
	}

	// Cost estimates are always computed, even under a forced direction, so
	// traces can grade forced decisions against the model.
	pushEdges := in.PushEdges
	if pushEdges < 0 {
		pushEdges = float64(in.NNZ) * in.AvgDeg
	}
	mergeFactor := math.Log2(float64(in.NNZ) + 2)
	allow := in.MaskAllowFrac
	if allow < 0 || allow > 1 {
		allow = 1
	}
	p.MaskAllowFrac = allow

	// Both push variants are costed and the cheaper one charged, but only
	// where the kernel would actually take the scatter path — the sort
	// estimate used to be charged unconditionally, inflating PushCost near
	// the crossover exactly where the decision is closest.
	wouldScatter := in.OutRows > 0 && pushEdges >= BitmapOutFraction*float64(in.OutRows)
	m := in.Model
	if !m.Calibrated() {
		m = UnitModel
	}
	rows := float64(in.OutRows) * allow
	p.PullCost = m.SetupNs + rows*(m.RowNs+in.AvgDeg*m.ProbeNs(in.InKind))
	sortCost := m.SetupNs + pushEdges*(m.GatherNs+mergeFactor*m.SortNs)
	scatterCost := m.SetupNs + pushEdges*(m.GatherNs+m.ScatterNs) + float64(in.OutRows)*m.ClearNs
	p.PushCost = sortCost
	if wouldScatter && scatterCost < sortCost {
		p.PushCost = scatterCost
	}
	// The corrector scales the costs the *decision* compares; the raw model
	// estimates are kept for PredictedNs so the feedback ratio is measured
	// against the uncorrected model. (Observing against the corrected
	// prediction would make the EWMA's fixed point the square root of the
	// true error instead of the error itself.)
	basePush, basePull := p.PushCost, p.PullCost
	if in.Correct != nil {
		p.PushCost *= in.Correct.Scale(Push)
		p.PullCost *= in.Correct.Scale(Pull)
	}

	if in.Force != nil {
		p.Dir = *in.Force
		p.Rule = RuleForced
	} else {
		p.Rule = RuleCostModel
		p.Dir = costRule(st, p)
	}

	if p.Dir == Push {
		p.PushOutBitmap = wouldScatter
	}
	if in.Model.Calibrated() {
		if p.Dir == Push {
			p.PredictedNs = basePush
		} else {
			p.PredictedNs = basePull
		}
	}
	if st != nil {
		st.PrevDir = p.Dir
		st.PrevNNZ = in.NNZ
		st.Primed = true
	}
	return p
}

// costRule compares the edge estimates, sticky on the previous direction:
// switching additionally requires the frontier trend to point the same way
// (growing to go pull, shrinking to go push).
func costRule(st *PlanState, p Plan) Direction {
	if st == nil || !st.Primed {
		if p.PushCost <= p.PullCost {
			return Push
		}
		return Pull
	}
	switch st.PrevDir {
	case Push:
		if p.PullCost < p.PushCost && p.Growing {
			return Pull
		}
		return Push
	default:
		if p.PushCost < p.PullCost && p.Shrinking {
			return Push
		}
		return Pull
	}
}

// AvgRowDegree returns nnz/rows for a CSR, the d of the cost model.
func AvgRowDegree(nnz, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(nnz) / float64(rows)
}
