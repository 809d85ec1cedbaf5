package core

import (
	"fmt"
	"math"
)

// This file prices the planner's work terms in nanoseconds. UnitModel —
// the planner's one uncalibrated rule — prices them in RAM accesses with
// fixed weights; on real hardware they differ by other factors (pull's
// random probes into the input vector are latency-bound, push's
// sequential gather is bandwidth-bound, a dense input skips the presence
// probe a bitset input pays), so the crossover the unit model finds is not
// the crossover the machine has. A CostModel carries per-term coefficients
// fitted by the internal/calibrate microbenchmarks, turning
// Plan.PushCost/PullCost into wall-clock-comparable ns estimates; a
// Corrector then nudges those estimates between iterations from measured
// kernel times, so a miscalibrated profile converges mid-traversal.

// CostModel holds per-term nanosecond coefficients for the direction
// planner. The zero value selects UnitModel, the uncalibrated rule; a
// fitted model (internal/calibrate) makes DecideDirection produce ns
// estimates instead, with the same formula, comparison and hysteresis.
type CostModel struct {
	// GatherNs is the cost of one gathered edge on the push side: a
	// sequential column fetch plus the merge-list append.
	GatherNs float64 `json:"gather_ns"`
	// ProbeWordNs and ProbeDenseNs price one pull-side probe of the input
	// vector, by its storage kind: a single-bit load from a word-packed
	// bitset (sparse inputs pack into one), and the probe-free dense
	// layout.
	ProbeWordNs  float64 `json:"probe_word_ns"`
	ProbeDenseNs float64 `json:"probe_dense_ns"`
	// RowNs is the fixed cost of scanning one output row on the pull side:
	// the row-pointer load, the mask probe and the loop setup.
	RowNs float64 `json:"row_ns"`
	// ScatterNs is the cost of one scattered output write on the push
	// side's sort-free bitmap path (a random presence probe plus the
	// value write).
	ScatterNs float64 `json:"scatter_ns"`
	// ClearNs is the cost of clearing one output slot before a bitmap
	// scatter — the sort-free path pays an O(OutRows) sequential clear the
	// sorted path does not, and near the scatter threshold that clear is a
	// real fraction of the kernel.
	ClearNs float64 `json:"clear_ns"`
	// SortNs is the cost of one radix-sorted pair unit on the push side's
	// sparse-output path; it multiplies the log₂ nnz merge factor.
	SortNs float64 `json:"sort_ns"`
	// SetupNs is the per-operation fixed cost: dispatch, workspace and
	// view lowering.
	SetupNs float64 `json:"setup_ns"`
}

// UnitModel is the uncalibrated price vector, in RAM accesses: a probed
// edge on the pull side and a sorted edge per log₂ merge level on the push
// side cost one each; a bitmap-scattered edge costs two (the matrix fetch
// plus a random presence probe-and-write) and each output slot cleared
// before the scatter one. Rows, gathers and setup are free.
var UnitModel = CostModel{ProbeWordNs: 1, ProbeDenseNs: 1, SortNs: 1, ScatterNs: 2, ClearNs: 1}

// Calibrated reports whether the model carries fitted coefficients; the
// zero value means UnitModel, whose plans set no PredictedNs.
func (m CostModel) Calibrated() bool { return m != (CostModel{}) }

// Validate rejects a model that cannot price work: any non-finite or
// negative coefficient, or an all-zero model (that selects UnitModel, it
// is not a calibration result).
func (m CostModel) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"gather_ns", m.GatherNs},
		{"probe_word_ns", m.ProbeWordNs},
		{"probe_dense_ns", m.ProbeDenseNs},
		{"row_ns", m.RowNs},
		{"scatter_ns", m.ScatterNs},
		{"clear_ns", m.ClearNs},
		{"sort_ns", m.SortNs},
		{"setup_ns", m.SetupNs},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("core: cost model %s is not finite: %v", c.name, c.v)
		}
		if c.v < 0 {
			return fmt.Errorf("core: cost model %s is negative: %v", c.name, c.v)
		}
	}
	if !m.Calibrated() {
		return fmt.Errorf("core: cost model is all-zero (the unit model is the zero value, not a profile)")
	}
	return nil
}

// ProbeNs returns the per-edge pull probe cost for an input of the given
// storage kind. Sparse inputs pack into workspace words before the pull,
// so they probe at the word rate.
func (m CostModel) ProbeNs(kind VecKind) float64 {
	if kind == KindDense {
		return m.ProbeDenseNs
	}
	return m.ProbeWordNs
}

// correctorAlpha is the EWMA weight of one new measured/predicted ratio:
// high enough that a badly-fitted profile converges within a few BFS
// levels, low enough that one noisy kernel timing cannot flip the planner.
const correctorAlpha = 0.25

// correctorClamp bounds a single observed ratio so a degenerate timing
// (first-call page faults, a descheduled worker) cannot poison the EWMA.
const correctorClamp = 16.0

// correctorDecay relaxes the scale of the direction that was NOT run
// toward 1 on every observation of the one that was. A direction the
// planner stops choosing receives no fresh measurements, so without decay
// a single degenerate timing — a cold first iteration inflating pull by
// 10× — bans that direction permanently: its stale corrected cost never
// crosses back under the chosen one's. Decay makes the ban provisional:
// after ~20 one-sided observations the banned direction's scale has
// relaxed enough to be retried, and the retry either re-earns the penalty
// from a warm measurement or wins the decision back. The chosen direction's
// own scale is refreshed every iteration and never decays.
const correctorDecay = 0.9

// Corrector is the online feedback loop between the planner and the
// kernels it schedules: the execute path times each kernel invocation and
// feeds (predicted ns, measured ns) back here; the planner multiplies its
// next estimates by the exponentially-weighted measured/predicted ratio
// per direction. The zero value is unprimed (scale 1) and ready to use.
// A Corrector is per-traversal state, like PlanState: do not share one
// across concurrent operations.
type Corrector struct {
	scale [2]float64 // EWMA of measured/predicted per Direction; 0 = unprimed
	n     [2]int
}

// Observe folds one timed kernel invocation into the per-direction scale.
// Non-positive predictions (the unit model sets none) and measurements are
// ignored, so the corrector is inert until a calibrated model primes it.
func (c *Corrector) Observe(dir Direction, predictedNs, measuredNs float64) {
	if c == nil || predictedNs <= 0 || measuredNs <= 0 {
		return
	}
	r := measuredNs / predictedNs
	if r > correctorClamp {
		r = correctorClamp
	} else if r < 1/correctorClamp {
		r = 1 / correctorClamp
	}
	s := &c.scale[dir]
	if *s == 0 {
		*s = r
	} else {
		*s += correctorAlpha * (r - *s)
	}
	c.n[dir]++
	// Relax the unobserved direction's stale scale toward neutral 1 (see
	// correctorDecay); an unprimed scale (0) stays unprimed.
	if o := &c.scale[1-dir]; *o != 0 {
		*o = 1 + correctorDecay*(*o-1)
	}
}

// Scale returns the current multiplicative correction for a direction's
// cost estimate; an unprimed direction returns neutral 1.
func (c *Corrector) Scale(dir Direction) float64 {
	if c == nil || c.scale[dir] == 0 {
		return 1
	}
	return c.scale[dir]
}

// Observations reports how many timed invocations have been folded in for
// a direction (trace/debug surface).
func (c *Corrector) Observations(dir Direction) int {
	if c == nil {
		return 0
	}
	return c.n[dir]
}

// Reset clears the corrector for a new graph.
func (c *Corrector) Reset() { *c = Corrector{} }
