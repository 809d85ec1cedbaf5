package serve

import (
	"math"
	"testing"

	"pushpull/internal/core"
)

// TestPredictorSeedThenEWMA: before any query completes, predictions come
// from the cost-model seed; the first measured sample replaces the seed
// outright (the seed is an order-of-magnitude bound, not evidence worth
// averaging against), and later samples blend in at the EWMA rate.
func TestPredictorSeedThenEWMA(t *testing.T) {
	p := newPredictor()
	seeded := 0
	seed := func() float64 { seeded++; return 5e6 }

	if got := p.predict("g", "bfs", seed); got != 5e6 {
		t.Fatalf("cold predict = %v, want seed 5e6", got)
	}
	if got := p.predict("g", "bfs", seed); got != 5e6 {
		t.Fatalf("second predict = %v, want cached seed", got)
	}
	if seeded != 1 {
		t.Fatalf("seed computed %d times, want once (cached on the entry)", seeded)
	}

	p.observe("g", "bfs", 5e6, 1e6)
	if got := p.predict("g", "bfs", seed); got != 1e6 {
		t.Fatalf("predict after first sample = %v, want 1e6 (measurement replaces seed)", got)
	}
	p.observe("g", "bfs", 1e6, 2e6)
	want := 1e6 + predictorAlpha*(2e6-1e6)
	if got := p.predict("g", "bfs", seed); math.Abs(got-want) > 1 {
		t.Fatalf("predict after second sample = %v, want EWMA %v", got, want)
	}
}

// TestPredictorConvergence: a level shift in the true cost converges the
// EWMA geometrically — within 2% after 20 samples at alpha 0.25 — so a
// server whose traffic changes shape re-prices admission within tens of
// queries, not thousands.
func TestPredictorConvergence(t *testing.T) {
	p := newPredictor()
	p.observe("g", "pagerank", 0, 1e6) // initial level: 1ms
	for i := 0; i < 20; i++ {
		p.observe("g", "pagerank", 0, 8e6) // true cost jumps to 8ms
	}
	got := p.predict("g", "pagerank", nil)
	if rel := math.Abs(got-8e6) / 8e6; rel > 0.02 {
		t.Fatalf("after 20 samples at 8e6, prediction %v is %.1f%% off", got, rel*100)
	}
}

// TestPredictorAccuracyRatio: the exported ratio pairs each completed
// query's admission-time prediction with its measurement — a predictor
// that consistently halves the true cost reports 2.0.
func TestPredictorAccuracyRatio(t *testing.T) {
	p := newPredictor()
	for i := 0; i < 10; i++ {
		p.observe("g", "sssp", 1e6, 2e6)
	}
	// Unpredicted observations must not dilute the ratio.
	p.observe("g", "sssp", 0, 9e9)

	snap := p.snapshot()
	ps, ok := snap["g/sssp"]
	if !ok {
		t.Fatalf("snapshot missing g/sssp: %v", snap)
	}
	if math.Abs(ps.AccuracyRatio-2.0) > 1e-9 {
		t.Errorf("AccuracyRatio = %v, want 2.0", ps.AccuracyRatio)
	}
	if ps.Samples != 11 {
		t.Errorf("Samples = %d, want 11", ps.Samples)
	}
	if ps.PredictedNs != ps.EwmaNs || ps.PredictedNs == 0 {
		t.Errorf("PredictedNs = %v, want the live EWMA %v", ps.PredictedNs, ps.EwmaNs)
	}
}

// TestPredictorIgnoresGarbage: non-positive and non-finite measurements
// are dropped instead of poisoning the EWMA.
func TestPredictorIgnoresGarbage(t *testing.T) {
	p := newPredictor()
	p.observe("g", "cc", 0, 1e6)
	p.observe("g", "cc", 0, -5)
	p.observe("g", "cc", 0, math.NaN())
	p.observe("g", "cc", 0, math.Inf(1))
	if got := p.predict("g", "cc", nil); got != 1e6 {
		t.Fatalf("prediction after garbage = %v, want untouched 1e6", got)
	}
}

// TestSweepBoundNs: no model (or an uncalibrated one) prices nothing; a
// calibrated model prices a full sweep at > 0 and scales with size.
func TestSweepBoundNs(t *testing.T) {
	if got := sweepBoundNs(nil, 1000, 10000); got != 0 {
		t.Fatalf("nil model: %v, want 0", got)
	}
	if got := sweepBoundNs(&core.CostModel{}, 1000, 10000); got != 0 {
		t.Fatalf("uncalibrated model: %v, want 0", got)
	}
	m := &core.CostModel{
		GatherNs: 2, ProbeWordNs: 1, RowNs: 4, ScatterNs: 2,
		ClearNs: 0.5, SortNs: 3, SetupNs: 500,
	}
	small := sweepBoundNs(m, 1000, 10000)
	if small <= 0 {
		t.Fatalf("calibrated bound = %v, want > 0", small)
	}
	if big := sweepBoundNs(m, 100_000, 1_000_000); big <= small {
		t.Fatalf("bound must grow with the graph: %v vs %v", big, small)
	}
}
