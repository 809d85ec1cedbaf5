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
// the multiway-merge term of Table 1 row 3. The pull product is Table 1
// rows 1–2: an unmasked pull scans every row, a masked pull only the rows
// the effective mask allows. Hysteresis is preserved from the legacy
// heuristic: a switch away from the current direction additionally requires
// the frontier to be moving the right way (growing to go pull, shrinking to
// go push), so a frontier hovering at the crossover does not flap — and
// with it, neither does the vector's storage format.
//
// The unit-weight estimates above assume a gathered edge, a scanned row
// and a scattered output all cost one RAM access. PlanInput.Model replaces
// those unit weights with per-machine nanosecond coefficients (costmodel.go,
// fitted by internal/calibrate), and PlanInput.Correct folds measured
// kernel times back into the estimates between iterations.

// Operation names recorded in Plan.Op by the unified pipeline.
const (
	OpMxV          = "mxv"
	OpApply        = "apply"
	OpSelect       = "select"
	OpAssign       = "assign"
	OpAssignScalar = "assign-scalar"
)

// Plan rule names, recorded for traces so decision quality can be audited.
const (
	// RuleForced marks a plan pinned by ForcePush/ForcePull.
	RuleForced = "forced"
	// RuleSwitchPoint marks the legacy nnz/n ratio rule (explicit
	// switch-point override).
	RuleSwitchPoint = "switchpoint"
	// RuleCostModel marks the edge-based cost comparison.
	RuleCostModel = "cost-model"
	// RuleFormat marks format-follows-storage dispatch (NoAutoConvert).
	RuleFormat = "format"
)

// Plan is one direction decision plus the evidence it was made on. MxV
// surfaces it through Descriptor.Plan and BFS through IterStats, so the
// harness can plot estimated costs against measured runtimes. The unified
// operation pipeline records every op it runs here — not just matvec — so
// a trace shows which kernel family executed and what storage layout the
// output landed in.
type Plan struct {
	// Op names the operation the record describes: "mxv", "apply",
	// "select", "assign", "assign-scalar".
	Op string
	// OutKind is the storage layout the output was produced in.
	OutKind VecKind
	// Dir is the chosen kernel orientation.
	Dir Direction
	// PushCost and PullCost are the model's work estimates. Under the unit
	// model (zero PlanInput.Model) they are edge touches — comparable to
	// each other, not to wall-clock; under a calibrated CostModel they are
	// nanosecond estimates, comparable to MeasuredNs.
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
	// discounted by: exact (a popcount over the mask's packed words, or the
	// bitmap's tracked count) when the caller could read it off the storage,
	// an estimate otherwise; 1 with no mask.
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
	// Rule names the decision path: forced, switchpoint, cost-model,
	// format.
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
	// SwitchPoint, when positive, selects the legacy Section 6.3 ratio rule
	// with that crossover instead of the cost model (the Descriptor's
	// SwitchPoint override keeps its historical meaning).
	SwitchPoint float64
	// Force pins the direction (descriptor override); nil means decide.
	Force *Direction
	// InKind is the storage kind of the input vector. A calibrated model
	// prices pull's per-edge probe by it (bool probe for bitmap and for
	// sparse inputs, which materialize into a bitmap; single-bit probe for
	// bitset; probe-free for dense). Ignored by the unit model.
	InKind VecKind
	// Model prices the terms in nanoseconds when calibrated; the zero
	// value selects the unit RAM-cost model, preserving historical
	// behaviour.
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

// Unit-model weights of the sort-free bitmap-scatter push variant, in the
// same RAM-access currency as the legacy estimates: each gathered edge
// costs a matrix fetch plus a random presence probe-and-write into the
// output bitmap, and the up-front clear touches every output presence
// byte once. These replace the log₂ merge factor when the plan itself
// selects the scatter path, so PushCost no longer charges a sort the
// kernel never runs.
const (
	unitScatterEdge  = 2.0
	unitScatterClear = 1.0
)

// DecideDirection runs the planner: overrides first, then the legacy ratio
// rule if an explicit switch-point is set, else the edge cost model. st is
// updated with this decision (pass nil for a stateless, hysteresis-free
// decision).
func DecideDirection(in PlanInput, st *PlanState) Plan {
	p := Plan{FrontierNNZ: in.NNZ, N: in.N, Growing: true, Shrinking: true}
	if st != nil && st.Primed {
		p.Growing = in.NNZ >= st.PrevNNZ
		p.Shrinking = in.NNZ <= st.PrevNNZ
	}

	// Cost estimates are always computed, even under an override, so traces
	// can grade forced and legacy decisions against the model.
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
	var sortCost, scatterCost float64
	if m := in.Model; m.Calibrated() {
		rows := float64(in.OutRows) * allow
		p.PullCost = m.SetupNs + rows*(m.RowNs+in.AvgDeg*m.ProbeNs(in.InKind))
		sortCost = m.SetupNs + pushEdges*(m.GatherNs+mergeFactor*m.SortNs)
		scatterCost = m.SetupNs + pushEdges*(m.GatherNs+m.ScatterNs) + float64(in.OutRows)*m.ClearNs
	} else {
		p.PullCost = float64(in.OutRows) * in.AvgDeg * allow
		sortCost = pushEdges * mergeFactor
		scatterCost = pushEdges*unitScatterEdge + float64(in.OutRows)*unitScatterClear
	}
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

	switch {
	case in.Force != nil:
		p.Dir = *in.Force
		p.Rule = RuleForced
	case in.SwitchPoint > 0:
		p.Rule = RuleSwitchPoint
		p.Dir = legacyRatioRule(in, st, p)
	default:
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
// the legacy hysteresis demanded.
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

// legacyRatioRule is the paper's single-ratio heuristic (Section 6.3),
// kept verbatim for the explicit SwitchPoint override: r = nnz/n against
// the crossover, with the trend gate.
func legacyRatioRule(in PlanInput, st *PlanState, p Plan) Direction {
	current := Push
	if st != nil && st.Primed {
		current = st.PrevDir
	}
	if in.N == 0 {
		return current
	}
	r := float64(in.NNZ) / float64(in.N)
	switch current {
	case Push:
		if r > in.SwitchPoint && p.Growing {
			return Pull
		}
	case Pull:
		if r < in.SwitchPoint && p.Shrinking {
			return Push
		}
	}
	return current
}

// AvgRowDegree returns nnz/rows for a CSR, the d of the cost model.
func AvgRowDegree(nnz, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(nnz) / float64(rows)
}
