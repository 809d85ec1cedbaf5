package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// TestBFSPlannerTraceShowsBitmapFrontiers is the end-to-end acceptance
// check for the three-format engine: a default (cost-planned) BFS on a
// scale-free-ish graph must pull at least once, its pulled frontiers must
// land in bitmap (or promoted dense) form, the planner's cost estimates
// must be recorded on every planned iteration, and the depths must match
// the reference traversal.
func TestBFSPlannerTraceShowsBitmapFrontiers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 400
	a := randUndirected(rng, n, 0.04)
	want := refBFS(a, 1)

	var stats []IterStats
	res, err := BFS(a, 1, BFSOptions{Trace: func(s IterStats) { stats = append(stats, s) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Depths[i] != want[i] {
			t.Fatalf("depth[%d] = %d, reference %d", i, res.Depths[i], want[i])
		}
	}
	if len(stats) == 0 {
		t.Fatal("no trace records")
	}
	sawPull, sawBitmap := false, false
	for _, s := range stats {
		if s.Direction == core.Pull {
			sawPull = true
			if s.FrontierFormat == graphblas.Sparse {
				t.Fatalf("iter %d: pulled frontier left sparse", s.Iteration)
			}
		}
		if s.FrontierFormat != graphblas.Sparse {
			sawBitmap = true
		}
		if s.PushCost <= 0 {
			t.Fatalf("iter %d: planner push cost missing from trace: %+v", s.Iteration, s)
		}
		if s.PullCost <= 0 && s.UnvisitedNNZ > 0 {
			t.Fatalf("iter %d: planner pull cost missing from trace: %+v", s.Iteration, s)
		}
	}
	if !sawPull {
		t.Fatalf("cost planner never pulled on a dense-ish graph: %+v", stats)
	}
	if !sawBitmap {
		t.Fatal("no bitmap frontier ever appeared in the trace")
	}
}

// TestBFSLegacySwitchPointStillHonored pins the override: an explicit
// SwitchPoint must route through the legacy ratio rule and still produce
// correct depths, for crossovers on both extremes.
func TestBFSLegacySwitchPointStillHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 200
	a := randUndirected(rng, n, 0.05)
	want := refBFS(a, 0)
	for _, sp := range []float64{0.001, 0.01, 0.9} {
		res, err := BFS(a, 0, BFSOptions{SwitchPoint: sp})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Depths[i] != want[i] {
				t.Fatalf("sp=%g: depth[%d] = %d, reference %d", sp, i, res.Depths[i], want[i])
			}
		}
	}
}

// TestBFSCalibratedModelEndToEnd runs BFS and SSSP under a plausible
// calibrated cost model: results must match the reference, every iteration
// must carry a nanosecond prediction and a kernel measurement, and the
// variants that thread the model through descriptors (ParentBFS, BC) must
// keep producing reference results.
func TestBFSCalibratedModelEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 300
	a := randUndirected(rng, n, 0.04)
	want := refBFS(a, 2)
	model := &core.CostModel{
		GatherNs: 2.6, ProbeBoolNs: 0.45, ProbeWordNs: 0.56, ProbeDenseNs: 0.1,
		RowNs: 7.6, ScatterNs: 1.7, SortNs: 0.85, SetupNs: 250,
	}

	var stats []IterStats
	res, err := BFS(a, 2, BFSOptions{Model: model, Trace: func(s IterStats) { stats = append(stats, s) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Depths[i] != want[i] {
			t.Fatalf("tuned depth[%d] = %d, reference %d", i, res.Depths[i], want[i])
		}
	}
	for _, s := range stats {
		if s.PredictedNs <= 0 {
			t.Fatalf("iter %d: calibrated model set no ns prediction: %+v", s.Iteration, s)
		}
		if s.MeasuredNs <= 0 {
			t.Fatalf("iter %d: kernel timing missing: %+v", s.Iteration, s)
		}
	}

	// SSSP plans its push rounds inside MxV and pins pull after the first
	// pull: every round, forced or planned, is priced and timed.
	w := weightedFromBool(rand.New(rand.NewSource(22)), a)
	stats = stats[:0]
	dist, err := SSSP(w, 2, SSSPOptions{Model: model, Trace: func(s IterStats) { stats = append(stats, s) }})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range refDijkstra(w, 2) {
		if math.Abs(d-dist[i]) > 1e-9 && !(math.IsInf(d, 1) && math.IsInf(dist[i], 1)) {
			t.Fatalf("tuned SSSP dist[%d] = %g, reference %g", i, dist[i], d)
		}
	}
	if len(stats) == 0 {
		t.Fatal("tuned SSSP traced no rounds")
	}
	for _, s := range stats {
		if s.PredictedNs <= 0 || s.MeasuredNs <= 0 {
			t.Fatalf("SSSP round %d: prediction or kernel timing missing: %+v", s.Iteration, s)
		}
	}

	parents, err := ParentBFSRun(a, 2, ParentBFSOptions{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parents {
		if (want[i] < 0) != (p < 0) {
			t.Fatalf("tuned ParentBFS reachability mismatch at %d: parent %d, depth %d", i, p, want[i])
		}
	}

	// Untuned vs tuned must agree exactly for the result-deterministic
	// algorithms (only the schedule may differ).
	bcPlain, err := BetweennessCentrality(a, []int{0, 2, 5}, BCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bcTuned, err := BetweennessCentrality(a, []int{0, 2, 5}, BCOptions{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bcPlain {
		if diff := bcPlain[i] - bcTuned[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("tuned BC diverged at %d: %g vs %g", i, bcTuned[i], bcPlain[i])
		}
	}
}

// TestMxVPlanDescriptorSink checks that Descriptor.Plan surfaces the
// planner's record through a real matvec.
func TestMxVPlanDescriptorSink(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 150
	a := randUndirected(rng, n, 0.05)
	sr := graphblas.OrAndBool()
	f := graphblas.NewVector[bool](n)
	_ = f.SetElement(0, true)
	var plan core.Plan
	desc := &graphblas.Descriptor{Transpose: true, Plan: &plan}
	w := graphblas.NewVector[bool](n)
	dir, err := graphblas.Into(w).With(desc).MxV(sr, a, f)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dir != dir {
		t.Fatalf("plan sink direction %v, returned %v", plan.Dir, dir)
	}
	if plan.Rule != core.RuleCostModel || plan.PushCost <= 0 || plan.PullCost <= 0 {
		t.Fatalf("plan sink incomplete: %+v", plan)
	}
}
