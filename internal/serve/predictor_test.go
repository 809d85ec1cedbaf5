package serve

import (
	"math"
	"testing"
)

// TestPredictorSeedThenEWMA: before any query completes the pair predicts
// 0 (admit unconditionally, no budget) while /metrics already lists it;
// the first measured sample seeds the EWMA outright, and later samples
// blend in at the EWMA rate.
func TestPredictorSeedThenEWMA(t *testing.T) {
	p := newPredictor()
	if got := p.predict("g", "bfs"); got != 0 {
		t.Fatalf("cold predict = %v, want 0", got)
	}
	if _, ok := p.snapshot()["g/bfs"]; !ok {
		t.Fatal("a cold pair is missing from the snapshot")
	}

	p.observe("g", "bfs", 0, 1e6)
	if got := p.predict("g", "bfs"); got != 1e6 {
		t.Fatalf("predict after first sample = %v, want 1e6", got)
	}
	p.observe("g", "bfs", 1e6, 2e6)
	want := 1e6 + predictorAlpha*(2e6-1e6)
	if got := p.predict("g", "bfs"); math.Abs(got-want) > 1 {
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
	got := p.predict("g", "pagerank")
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
}

// TestPredictorIgnoresGarbage: non-positive and non-finite measurements
// are dropped instead of poisoning the EWMA.
func TestPredictorIgnoresGarbage(t *testing.T) {
	p := newPredictor()
	p.observe("g", "cc", 0, 1e6)
	p.observe("g", "cc", 0, -5)
	p.observe("g", "cc", 0, math.NaN())
	p.observe("g", "cc", 0, math.Inf(1))
	if got := p.predict("g", "cc"); got != 1e6 {
		t.Fatalf("prediction after garbage = %v, want untouched 1e6", got)
	}
}
