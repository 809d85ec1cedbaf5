package core

import (
	"fmt"
	"math"
)

// This file prices the planner's work terms in nanoseconds. A decision
// counts the work each kernel would do (Work, one entry per Term) and a
// CostModel prices the counts. UnitModel — the planner's one uncalibrated
// rule — prices them in RAM accesses with fixed weights; on real hardware
// they differ by other factors (pull's random probes into the input vector
// are latency-bound, push's sequential gather is bandwidth-bound, a dense
// input skips the presence probe a bitset input pays), so the crossover the
// unit model finds is not the crossover the machine has. A CostModel fitted
// by internal/calibrate, on the counts and kernel times that MxV's plans
// record over replayed BFS levels, turns Plan.PushCost/PullCost into
// wall-clock-comparable ns estimates; a Corrector then nudges those
// estimates between iterations from measured kernel times, so a
// miscalibrated profile converges mid-traversal.

// CostModel holds the direction planner's per-term nanosecond
// coefficients, one per Term (Coef maps a term to its field, Terms gives
// its JSON key). The zero value selects UnitModel, the uncalibrated rule; a
// fitted model (internal/calibrate) makes DecideDirection produce ns
// estimates instead, with the same counts, comparison and hysteresis.
type CostModel struct {
	GatherNs     float64 `json:"gather_ns"`
	ProbeWordNs  float64 `json:"probe_word_ns"`
	ProbeDenseNs float64 `json:"probe_dense_ns"`
	RowNs        float64 `json:"row_ns"`
	ScatterNs    float64 `json:"scatter_ns"`
	ClearNs      float64 `json:"clear_ns"`
	SortNs       float64 `json:"sort_ns"`
	SetupNs      float64 `json:"setup_ns"`
}

// Term indexes one priced work term: a count of something a kernel does,
// priced by one CostModel coefficient.
type Term int

// The work terms, in the order Terms lists them.
const (
	TermSetup      Term = iota // kernel invocations, 1 per plan: dispatch, workspace, view lowering
	TermRow                    // output rows a pull scans: row pointer, mask probe, loop setup
	TermProbeWord              // in-edges a pull probes in a bitset input (a sparse one packs into words)
	TermProbeDense             // in-edges a pull probes in a dense input, which needs no presence probe
	TermGather                 // edges a push gathers: column fetch and merge-list append
	TermSort                   // radix-sorted pair units: gathered edges × log₂(nnz+2)
	TermScatter                // outputs a sort-free push scatters: presence probe and value write
	TermClear                  // output slots cleared before a scatter, O(OutRows), which a sort skips
	NumTerms
)

// Work is the counted work of one kernel invocation, one entry per Term.
// DecideDirection counts it for the pull and both push variants, prices it,
// and records the chosen direction's in Plan.Work.
type Work [NumTerms]float64

// Terms describes the priced terms, in Term order: the profile key a
// term's coefficient is stored under and what one unit of it is. With
// CostModel.Coef it is the one definition of the terms: Validate, Price,
// the calibration fit and ppbench's printed table all read them.
var Terms = [NumTerms]struct{ Key, Unit string }{
	TermSetup:      {"setup_ns", "setup (per op)"},
	TermRow:        {"row_ns", "scanned row (pull)"},
	TermProbeWord:  {"probe_word_ns", "probed edge, bitset input"},
	TermProbeDense: {"probe_dense_ns", "probed edge, dense input"},
	TermGather:     {"gather_ns", "gathered edge (push)"},
	TermSort:       {"sort_ns", "sorted pair unit (push, ×log₂nnz)"},
	TermScatter:    {"scatter_ns", "scattered output (push bitmap-out)"},
	TermClear:      {"clear_ns", "cleared output slot (push bitmap-out)"},
}

// Coef returns the coefficient of m that prices term t.
func (m *CostModel) Coef(t Term) *float64 { return m.coefs()[t] }

// coefs lists m's coefficients in Term order.
func (m *CostModel) coefs() [NumTerms]*float64 {
	return [NumTerms]*float64{
		TermSetup: &m.SetupNs, TermRow: &m.RowNs, TermProbeWord: &m.ProbeWordNs, TermProbeDense: &m.ProbeDenseNs,
		TermGather: &m.GatherNs, TermSort: &m.SortNs, TermScatter: &m.ScatterNs, TermClear: &m.ClearNs,
	}
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
	for t, term := range Terms {
		v := *m.Coef(Term(t))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: cost model %s is not finite: %v", term.Key, v)
		}
		if v < 0 {
			return fmt.Errorf("core: cost model %s is negative: %v", term.Key, v)
		}
	}
	if !m.Calibrated() {
		return fmt.Errorf("core: cost model is all-zero (the unit model is the zero value, not a profile)")
	}
	return nil
}

// Price returns the model's estimate of w: Σ coefficient × count over the
// terms.
func (m CostModel) Price(w Work) float64 {
	c := m.prices()
	return c.of(&w)
}

// prices is a model's coefficients by Term, read once to price several
// Works.
type prices [NumTerms]float64

func (m *CostModel) prices() (p prices) {
	for t, c := range m.coefs() {
		p[t] = *c
	}
	return p
}

func (p *prices) of(w *Work) float64 {
	s := 0.0
	for t := range p {
		s += p[t] * w[t]
	}
	return s
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
