package main

import (
	"fmt"
	"sort"
	"testing"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/harness"
)

// benchExperiment is the machine-trackable perf snapshot: ns/op, B/op and
// allocs/op for the four matvec variants and a full direction-optimized
// BFS (via testing.Benchmark, so the numbers are directly comparable with
// `go test -bench`), plus one traced BFS run showing the direction
// planner's per-iteration decisions — chosen direction, frontier size and
// storage format, and the push/pull cost estimates the decision was made
// on. With -json set this lands in BENCH_bench.json, giving CI a perf
// trajectory across PRs.
func benchExperiment(cfg config) error {
	g, err := harness.KronDataset(cfg.scale).Build()
	if err != nil {
		return err
	}
	n := g.NRows()
	sr := graphblas.OrAndBool()
	// The generic matvec rows run the Boolean semiring's general form,
	// which multiplies matrix values; the graph itself is pattern-only.
	gv := graphblas.ValuedAs(g, true)

	// Mid-sweep operands, mirroring the Figure 2 setup: frontier at n/8,
	// mask at n/12.
	u := graphblas.NewVector[bool](n)
	for i := 0; i < n; i += 8 {
		_ = u.SetElement(i, true)
	}
	denseU := u.Dup()
	denseU.ToBitmap()
	mask := graphblas.NewVector[bool](n)
	for i := 0; i < n; i += 12 {
		_ = mask.SetElement(i, true)
	}
	mask.ToBitmap()
	// Word-packed twin of the mask, plus a visited-style bitset (dense-ish,
	// the BFS mid-traversal shape) for the complemented-mask pull row.
	bsMask := mask.Dup()
	bsMask.ToBitset()
	visited := graphblas.NewVector[bool](n)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			_ = visited.SetElement(i, true)
		}
	}
	visited.ToBitset()
	ws := graphblas.NewWorkspace(n, n)
	w := graphblas.NewVector[bool](n)

	type variant struct {
		name string
		run  func() error
	}
	pullDesc := &graphblas.Descriptor{NoAutoConvert: true, Direction: graphblas.ForcePull, Workspace: ws}
	pushDesc := &graphblas.Descriptor{NoAutoConvert: true, Direction: graphblas.ForcePush, Workspace: ws}
	scmpPullDesc := &graphblas.Descriptor{NoAutoConvert: true, Direction: graphblas.ForcePull,
		StructuralComplement: true, StructureOnly: true, Workspace: ws}

	// Unified-pipeline operands: the masked eWise/apply steady state the
	// OpSpec pipeline is responsible for keeping allocation-free.
	ewDesc := &graphblas.Descriptor{Workspace: ws}
	scmpDesc := &graphblas.Descriptor{StructuralComplement: true, Workspace: ws}
	ranks := graphblas.NewVector[float64](n)
	ranks.Fill(1)
	tele := graphblas.NewVector[float64](n)
	tele.Fill(0.15)
	sums := graphblas.NewVector[float64](n)
	fvals := graphblas.NewVector[float64](n)
	for i := 0; i < n; i += 8 {
		_ = fvals.SetElement(i, float64(i))
	}
	fout := graphblas.NewVector[float64](n)
	orOp := func(a, b bool) bool { return a || b }
	andOp := func(a, b bool) bool { return a && b }
	plus := func(a, b float64) float64 { return a + b }
	scale := func(x float64) float64 { return 0.85 * x }
	notOp := func(x bool) bool { return !x }

	// Boolean eWise operand pairs in both dense-pattern layouts, so the
	// bitset rows gate the word-parallel kernels against the []bool
	// baseline.
	boolA := graphblas.NewVector[bool](n)
	boolB := graphblas.NewVector[bool](n)
	for i := 0; i < n; i++ {
		_ = boolA.SetElement(i, i%2 == 0)
		_ = boolB.SetElement(i, i%3 == 0)
	}
	boolABitmap, boolBBitmap := boolA.Dup(), boolB.Dup()
	boolABitmap.ToBitmap()
	boolBBitmap.ToBitmap()
	boolABitset, boolBBitset := boolA.Dup(), boolB.Dup()
	boolABitset.ToBitset()
	boolBBitset.ToBitset()
	boolOut := graphblas.NewVector[bool](n)
	variants := []variant{
		{"row-nomask", func() error {
			_, err := graphblas.Into(w).With(pullDesc).MxV(sr, gv, denseU)
			return err
		}},
		{"row-mask", func() error {
			_, err := graphblas.Into(w).Mask(mask).With(pullDesc).MxV(sr, gv, denseU)
			return err
		}},
		{"col-nomask", func() error {
			_, err := graphblas.Into(w).With(pushDesc).MxV(sr, gv, u)
			return err
		}},
		{"col-mask", func() error {
			_, err := graphblas.Into(w).Mask(mask).With(pushDesc).MxV(sr, gv, u)
			return err
		}},
		{"ewise-add-masked", func() error {
			// w⟨m⟩ = u ⊕ f: sparse∘sparse union under a bitmap mask.
			return graphblas.Into(w).Mask(mask).With(ewDesc).EWiseAdd(orOp, u, u)
		}},
		{"ewise-add-dense", func() error {
			// Dense∘dense union: the probe-free value-array loop.
			return graphblas.Into(sums).With(ewDesc).EWiseAdd(plus, tele, ranks)
		}},
		{"apply-dense", func() error {
			// Apply over a PageRank-style dense vector: bitmap-out path,
			// no sparse round-trip.
			return graphblas.Into(sums).With(ewDesc).Apply(scale, ranks)
		}},
		{"apply-masked-scmp", func() error {
			// f⟨¬m⟩ = f: the BFS post-filter as a masked identity apply.
			return graphblas.Into(fout).Mask(mask).With(scmpDesc).Apply(scale, fvals)
		}},
		{"row-mask-bitset-scmp", func() error {
			// The paper's headline masked pull against a word-packed
			// ¬visited mask: scmp flips 64 rows per word.
			_, err := graphblas.Into(w).Mask(visited).With(scmpPullDesc).MxV(sr, g, denseU)
			return err
		}},
		{"col-mask-bitset", func() error {
			// Push with the bitset mask applied as the post-merge filter.
			_, err := graphblas.Into(w).Mask(bsMask).With(pushDesc).MxV(sr, gv, u)
			return err
		}},
		{"ewise-bool-dense", func() error {
			// Baseline: dense∘dense Boolean AND, one op call per element.
			return graphblas.Into(boolOut).With(ewDesc).EWiseMult(andOp, boolABitmap, boolBBitmap)
		}},
		{"ewise-bool-bitset", func() error {
			// Word-parallel twin: truth-tabled AND over packed words, 64
			// elements per step.
			return graphblas.Into(boolOut).With(ewDesc).EWiseMult(andOp, boolABitset, boolBBitset)
		}},
		{"ewise-bool-bitset-or", func() error {
			return graphblas.Into(boolOut).With(ewDesc).EWiseAdd(orOp, boolABitset, boolBBitset)
		}},
		{"apply-bool-bitset", func() error {
			// Truth-tabled NOT over packed words.
			return graphblas.Into(boolOut).With(ewDesc).Apply(notOp, boolABitset)
		}},
		{"bfs-full", func() error {
			// Runs under -tune's calibrated model when one is loaded, so
			// the CI regression gate tracks the calibrated planner.
			_, err := algorithms.BFS(g, 0, algorithms.BFSOptions{Model: cfg.model})
			return err
		}},
	}
	// Each variant runs -count times and reports the run with the median
	// ns/op, de-flaking the CI regression gate without raising the floor a
	// best-of-N would hide behind.
	count := cfg.count
	if count < 1 {
		count = 1
	}
	rows := make([][]string, 0, len(variants))
	for _, v := range variants {
		v := v
		results := make([]testing.BenchmarkResult, 0, count)
		for rep := 0; rep < count; rep++ {
			results = append(results, testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := v.run(); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
		sort.Slice(results, func(i, j int) bool { return results[i].NsPerOp() < results[j].NsPerOp() })
		r := results[len(results)/2]
		rows = append(rows, []string{
			v.name,
			harness.I(int(r.NsPerOp())),
			harness.I(int(r.AllocedBytesPerOp())),
			harness.I(int(r.AllocsPerOp())),
		})
	}
	title := fmt.Sprintf("Benchmark — matvec variants and BFS (kron scale=%d, median of %d)", cfg.scale, count)
	if err := emit(cfg, title, []string{"name", "ns/op", "B/op", "allocs/op"}, rows); err != nil {
		return err
	}

	// Mask storage footprint: the visited-mask bytes a masked pull probes,
	// per representation (the ≥4× claim is 8× here — one bit vs one byte).
	bitmapBytes := n
	bitsetBytes := 8 * ((n + 63) / 64)
	if err := emit(cfg, "Visited-mask storage footprint (bytes)",
		[]string{"representation", "bytes", "ratio"},
		[][]string{
			{"bitmap ([]bool)", harness.I(bitmapBytes), "1.0"},
			{"bitset ([]uint64)", harness.I(bitsetBytes), harness.F(float64(bitmapBytes) / float64(bitsetBytes))},
		}); err != nil {
		return err
	}

	// Per-iteration direction trace of one planned BFS: the planner's cost
	// estimates next to what it chose and what format the frontier landed
	// in. Under -tune the costs are the calibrated model's ns estimates
	// and predicted-ns/measured-ns witness the feedback loop's error.
	var trace [][]string
	if _, err := algorithms.BFS(g, 0, algorithms.BFSOptions{Model: cfg.model, Trace: func(s algorithms.IterStats) {
		trace = append(trace, []string{
			harness.I(s.Iteration),
			s.Direction.String(),
			harness.I(s.FrontierNNZ),
			s.FrontierFormat.String(),
			harness.F(s.PushCost),
			harness.F(s.PullCost),
			harness.F(s.MaskDensity),
			harness.F(s.PredictedNs),
			harness.F(s.MeasuredNs),
			harness.F(float64(s.Duration.Nanoseconds()) / 1e6),
		})
	}}); err != nil {
		return err
	}
	if err := emit(cfg, "Direction trace — planned BFS iterations",
		[]string{"iter", "direction", "frontier", "format", "push-cost", "pull-cost", "mask-density", "predicted-ns", "measured-ns", "ms"}, trace); err != nil {
		return err
	}
	return decisionQualityTables(cfg)
}

// decisionQualityTables replays a small-scale BFS per graph with *both*
// kernels measured at every level and reports how often each cost model
// scheduled the measured-faster one — the planner's accuracy, tracked in
// BENCH_bench.json next to the ns/op rows.
func decisionQualityTables(cfg config) error {
	scale := cfg.scale
	if scale > 12 {
		// Both kernels run at every level; keep the replay small.
		scale = 12
	}
	reports, err := harness.DecisionQuality(scale, cfg.model)
	if err != nil {
		return err
	}
	summary := make([][]string, 0, 2*len(reports))
	for _, rep := range reports {
		var detail [][]string
		for _, r := range rep.Rows {
			calDir, calGood := "—", "—"
			if cfg.model != nil {
				calDir, calGood = r.CalDir.String(), boolMark(r.CalGood)
			}
			detail = append(detail, []string{
				harness.I(r.Iteration), harness.I(r.FrontierNNZ),
				harness.F(r.PushMS), harness.F(r.PullMS),
				r.UnitDir.String(), boolMark(r.UnitGood), calDir, calGood,
			})
		}
		if err := emit(cfg, fmt.Sprintf("Decision quality — %s (scale=%d, both kernels measured per iteration)", rep.Graph, scale),
			[]string{"iter", "frontier", "push-ms", "pull-ms", "unit-dir", "unit-good", "cal-dir", "cal-good"}, detail); err != nil {
			return err
		}
		summary = append(summary, []string{rep.Graph + "/unit", harness.F(rep.UnitAccuracy)})
		if cfg.model != nil {
			summary = append(summary, []string{rep.Graph + "/calibrated", harness.F(rep.CalAccuracy)})
		}
	}
	return emit(cfg, "Decision accuracy — fraction of iterations scheduled on the measured-faster kernel",
		[]string{"graph/model", "accuracy"}, summary)
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
