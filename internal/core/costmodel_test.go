package core

import (
	"math"
	"testing"
)

// balancedModel is a plausible fitted model where the per-term weights are
// of the same order — decisions should roughly track the unit model's.
func balancedModel() CostModel {
	return CostModel{
		GatherNs: 2, ProbeWordNs: 2, ProbeDenseNs: 0.5,
		RowNs: 3, ScatterNs: 2, SortNs: 2, SetupNs: 500,
	}
}

func TestCostModelValidate(t *testing.T) {
	if err := balancedModel().Validate(); err != nil {
		t.Fatalf("balanced model rejected: %v", err)
	}
	bad := balancedModel()
	bad.RowNs = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	bad = balancedModel()
	bad.GatherNs = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Fatal("Inf coefficient accepted")
	}
	bad = balancedModel()
	bad.SortNs = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative coefficient accepted")
	}
	if err := (CostModel{}).Validate(); err == nil {
		t.Fatal("all-zero model accepted as a profile")
	}
	if (CostModel{}).Calibrated() {
		t.Fatal("zero model claims to be calibrated")
	}
}

// switchIndex sweeps a growing frontier through a stateful planner and
// returns the first sweep step that decided Pull (len(sweep) if none).
func switchIndex(t *testing.T, m CostModel, kind VecKind) int {
	t.Helper()
	const n, d = 100_000, 16.0
	var st PlanState
	for step := 0; step < 20; step++ {
		nnz := 1 << step
		if nnz > n {
			nnz = n
		}
		p := DecideDirection(PlanInput{
			NNZ: nnz, N: n, OutRows: n,
			PushEdges: float64(nnz) * d, AvgDeg: d, MaskAllowFrac: 1,
			Model: m, InKind: kind,
		}, &st)
		if p.Dir == Pull {
			return step
		}
	}
	return 20
}

// TestCalibratedDecisionMonotonicity pins the planner's response to
// extreme coefficient ratios: a host where pull's row scan is expensive
// must switch push→pull strictly later in a growing sweep than a host
// where push's gather is expensive, with a balanced model in between.
func TestCalibratedDecisionMonotonicity(t *testing.T) {
	pullExpensive := balancedModel()
	pullExpensive.RowNs, pullExpensive.ProbeWordNs = 300, 100
	pushExpensive := balancedModel()
	pushExpensive.GatherNs, pushExpensive.SortNs = 300, 100

	early := switchIndex(t, pushExpensive, KindBitset)
	mid := switchIndex(t, balancedModel(), KindBitset)
	late := switchIndex(t, pullExpensive, KindBitset)
	if !(early <= mid && mid < late) {
		t.Fatalf("switch points not monotone in coefficient ratio: push-expensive %d, balanced %d, pull-expensive %d",
			early, mid, late)
	}
}

// TestCalibratedProbeKindOrdering checks the input-kind pricing: with
// distinct probe coefficients, the pull estimate must be cheaper for dense
// inputs than for bitset ones, and sparse prices as bitset, since it packs
// into words.
func TestCalibratedProbeKindOrdering(t *testing.T) {
	m := balancedModel()
	in := PlanInput{NNZ: 1000, N: 10000, OutRows: 10000, PushEdges: 16000, AvgDeg: 16, MaskAllowFrac: 1, Model: m}

	cost := func(k VecKind) float64 {
		in.InKind = k
		return DecideDirection(in, nil).PullCost
	}
	dense, bitset, sparse := cost(KindDense), cost(KindBitset), cost(KindSparse)
	if !(dense < bitset) {
		t.Fatalf("probe pricing out of order: dense %g, bitset %g", dense, bitset)
	}
	if sparse != bitset {
		t.Fatalf("sparse input should price as packed words: %g vs %g", sparse, bitset)
	}
}

// TestPushScatterCostReplacesSortTerm is the satellite fix: once the plan
// selects the sort-free bitmap scatter, PushCost must not charge the log₂
// merge factor — under both the unit model and a calibrated one.
func TestPushScatterCostReplacesSortTerm(t *testing.T) {
	// Dense-ish frontier well past BitmapOutFraction, big nnz so the merge
	// factor is large — sort-priced push would lose to pull, scatter-priced
	// push wins.
	in := PlanInput{NNZ: 4000, N: 10000, OutRows: 10000, PushEdges: 40000, AvgDeg: 10, MaskAllowFrac: 1}

	p := DecideDirection(in, nil)
	if p.Dir != Push || !p.PushOutBitmap {
		t.Fatalf("setup broken, want a bitmap-scatter push plan: %+v", p)
	}
	sortCost := in.PushEdges * math.Log2(float64(in.NNZ)+2)
	wantScatter := in.PushEdges*UnitModel.ScatterNs + float64(in.OutRows)*UnitModel.ClearNs
	if p.PushCost >= sortCost {
		t.Fatalf("unit PushCost %g still charges the sort (%g)", p.PushCost, sortCost)
	}
	if p.PushCost != wantScatter {
		t.Fatalf("unit scatter cost %g, want %g", p.PushCost, wantScatter)
	}

	m := balancedModel()
	in.Model = m
	p = DecideDirection(in, nil)
	if !p.PushOutBitmap {
		t.Fatalf("calibrated plan lost the scatter advice: %+v", p)
	}
	calSort := m.SetupNs + in.PushEdges*(m.GatherNs+math.Log2(float64(in.NNZ)+2)*m.SortNs)
	calScatter := m.SetupNs + in.PushEdges*(m.GatherNs+m.ScatterNs)
	if p.PushCost != calScatter || p.PushCost >= calSort {
		t.Fatalf("calibrated scatter cost %g, want %g (< sort %g)", p.PushCost, calScatter, calSort)
	}
	if p.PredictedNs != p.PushCost {
		t.Fatalf("PredictedNs %g should equal the chosen push cost %g", p.PredictedNs, p.PushCost)
	}

	// Below the scatter threshold the sort term is still charged.
	in.Model = CostModel{}
	in.PushEdges, in.NNZ = 100, 30
	p = DecideDirection(in, nil)
	if p.PushOutBitmap {
		t.Fatalf("sparse output should not advise scatter: %+v", p)
	}
	if want := in.PushEdges * math.Log2(float64(in.NNZ)+2); p.PushCost != want {
		t.Fatalf("sparse-output push cost %g, want sort estimate %g", p.PushCost, want)
	}
}

// TestUnitModelPredictsNoNs pins that the unit model never claims its
// costs are nanoseconds (PredictedNs drives the feedback corrector, which
// must stay inert without a calibrated profile).
func TestUnitModelPredictsNoNs(t *testing.T) {
	p := DecideDirection(PlanInput{NNZ: 10, N: 1000, OutRows: 1000, PushEdges: 100, AvgDeg: 10, MaskAllowFrac: 1}, nil)
	if p.PredictedNs != 0 {
		t.Fatalf("unit model set PredictedNs = %g", p.PredictedNs)
	}
}

func TestCorrectorConvergesAndClamps(t *testing.T) {
	var c Corrector
	if c.Scale(Push) != 1 || c.Scale(Pull) != 1 {
		t.Fatal("unprimed corrector should scale by 1")
	}
	// Kernel consistently 4× slower than predicted: the push scale must
	// converge toward 4 while pull stays untouched.
	for i := 0; i < 40; i++ {
		c.Observe(Push, 1000, 4000)
	}
	if s := c.Scale(Push); math.Abs(s-4) > 0.1 {
		t.Fatalf("push scale %g, want ≈4", s)
	}
	if c.Scale(Pull) != 1 {
		t.Fatalf("pull scale moved: %g", c.Scale(Pull))
	}
	if c.Observations(Push) != 40 || c.Observations(Pull) != 0 {
		t.Fatalf("observation counts: push %d pull %d", c.Observations(Push), c.Observations(Pull))
	}

	// A degenerate measurement is clamped, not absorbed verbatim.
	c.Reset()
	c.Observe(Pull, 1, 1e12)
	if s := c.Scale(Pull); s > correctorClamp {
		t.Fatalf("ratio clamp missing: %g", s)
	}
	// Non-positive predictions (unit model) are ignored entirely.
	c.Reset()
	c.Observe(Push, 0, 500)
	c.Observe(Push, -3, 500)
	c.Observe(Push, 100, 0)
	if c.Scale(Push) != 1 || c.Observations(Push) != 0 {
		t.Fatal("corrector absorbed an unpriced observation")
	}
	// Nil receiver is safe (unplanned paths pass no corrector).
	var nilC *Corrector
	nilC.Observe(Push, 1, 1)
	if nilC.Scale(Push) != 1 || nilC.Observations(Pull) != 0 {
		t.Fatal("nil corrector misbehaved")
	}
}

// TestCorrectorDecaysUnobservedDirection pins the explore/exploit contract:
// a direction the planner stops running receives no fresh timings, so its
// scale — possibly inflated by one degenerate cold measurement — must relax
// toward 1 as the other direction keeps being observed, instead of banning
// the direction forever.
func TestCorrectorDecaysUnobservedDirection(t *testing.T) {
	var c Corrector
	// One cold pull measurement 10× over prediction primes a heavy penalty.
	c.Observe(Pull, 1000, 10000)
	inflated := c.Scale(Pull)
	if inflated < 9 {
		t.Fatalf("pull scale %g, want ≈10 after the cold sample", inflated)
	}
	// Push-only observations thereafter: pull's stale scale must shrink
	// monotonically toward 1 while push's own converges normally.
	prev := inflated
	for i := 0; i < 60; i++ {
		c.Observe(Push, 1000, 1000)
		s := c.Scale(Pull)
		if s > prev {
			t.Fatalf("pull scale rose without a pull observation: %g -> %g", prev, s)
		}
		prev = s
	}
	if prev > 1.1 {
		t.Fatalf("pull scale %g after 60 one-sided observations, want ≈1", prev)
	}
	if s := c.Scale(Push); math.Abs(s-1) > 1e-9 {
		t.Fatalf("push scale %g, want 1", s)
	}
	// An unprimed direction stays unprimed: decay never invents a scale.
	c.Reset()
	c.Observe(Push, 1000, 2000)
	if c.Scale(Pull) != 1 {
		t.Fatalf("decay primed an unobserved direction: %g", c.Scale(Pull))
	}
}

// TestCorrectorFlipsDecision runs the whole feedback loop through the
// planner: a profile that badly underprices pull must, after a few
// observed (predicted, measured) pairs, stop choosing pull at a frontier
// where the measurements say push is faster.
func TestCorrectorFlipsDecision(t *testing.T) {
	m := balancedModel()
	m.RowNs, m.ProbeWordNs = 0.2, 0.2 // pull looks ~4× cheaper than it is
	var corr Corrector
	in := PlanInput{
		NNZ: 2000, N: 10000, OutRows: 10000,
		PushEdges: 20000, AvgDeg: 10, MaskAllowFrac: 1,
		Model: m, InKind: KindBitset, Correct: &corr,
	}
	p := DecideDirection(in, nil)
	if p.Dir != Pull {
		t.Fatalf("mispriced profile should start on pull: %+v", p)
	}
	// Reality: the machine's pull time is fixed at 50× the *raw* model
	// estimate. PredictedNs must stay the uncorrected estimate while the
	// corrector converges — if correction leaked into the prediction, the
	// observed ratio would shrink each round and the EWMA would stall at
	// the square root of the true error.
	machinePullNs := p.PredictedNs * 50
	raw := p.PredictedNs
	for i := 0; i < 12 && p.Dir == Pull; i++ {
		corr.Observe(Pull, p.PredictedNs, machinePullNs)
		p = DecideDirection(in, nil)
		if p.Dir == Pull && p.PredictedNs != raw {
			t.Fatalf("corrector leaked into PredictedNs: %g, raw estimate %g", p.PredictedNs, raw)
		}
	}
	if p.Dir != Push {
		t.Fatalf("corrector failed to overturn the mispriced pull: %+v (pull scale %g)", p, corr.Scale(Pull))
	}
}
