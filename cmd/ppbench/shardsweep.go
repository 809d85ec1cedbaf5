package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/calibrate"
	"pushpull/internal/core"
	"pushpull/internal/harness"
)

// shardSweepTables benchmarks the range-sharded hybrid matvec against the
// best whole-operation single-direction plan, on the operands where
// sharding is supposed to win: a mid-BFS frontier (neither the sparse
// start nor the saturated tail) under a ¬visited mask, on one skewed and
// one degree-uniform graph. Rows sweep the shard count so BENCH_bench.json
// tracks both the hybrid-vs-uniform speedup and how it scales with shards,
// and a per-shard table from the 8-shard run records what the planner
// decided shard by shard — the decision-quality witness for hybrid
// execution (hub shards pulling while tail shards push).
func shardSweepTables(cfg config) error {
	type dataset struct {
		name  string
		scale int
		build func() (*graphblas.Matrix[bool], error)
	}
	// The skewed scenario needs a frontier near the push/pull crossover,
	// and kron frontiers explode so fast that below scale 16 no integer
	// BFS level lands between the two uniform regimes (level n is decided
	// push, level n+1 decided pull, with the contested mix falling in the
	// gap). Floor the kron shard sweep at 16 so the experiment measures
	// the regime it exists for, whatever -scale the rest of the run uses.
	// Quick mode keeps the requested scale — smoke runs only need the
	// tables to be well-formed, not the crossover to exist.
	kronScale := cfg.scale
	if kronScale < 16 && !cfg.quick {
		kronScale = 16
	}
	sets := []dataset{
		{"kron", kronScale, harness.KronDataset(kronScale).Build},
		{"uniform", cfg.scale, func() (*graphblas.Matrix[bool], error) {
			n := 1 << cfg.scale
			return generate.ErdosRenyi(n, 8/float64(n), 404)
		}},
	}
	count := cfg.count
	if count < 1 {
		count = 1
	}
	// Per-shard decisions need priced estimates: the unit model has no
	// early-exit discount, so it cannot see that an unvisited hub range
	// pulls in a handful of probes — and the measured-time corrector only
	// engages when PredictedNs is set. Use the -tune profile when loaded;
	// otherwise fit a quick one inline for the sweep.
	model := cfg.model
	if model == nil {
		if prof, err := calibrate.Run(calibrate.Options{Quick: true}); err == nil {
			model = &prof.Model
		}
	}
	var summary [][]string
	for _, ds := range sets {
		g, err := ds.build()
		if err != nil {
			return err
		}
		n := g.NRows()
		f, fBitset, visited, depth, err := midBFSOperands(g)
		if err != nil {
			return err
		}
		sr := graphblas.OrAndBool()
		ws := graphblas.NewWorkspace(n, n)
		w := graphblas.NewVector[bool](n)
		mkDesc := func(dir graphblas.Direction, shards int) *graphblas.Descriptor {
			d := &graphblas.Descriptor{
				Transpose: true, StructuralComplement: true, StructureOnly: true,
				Direction: dir, Shards: shards, Workspace: ws, CostModel: model,
			}
			if shards > 1 {
				// Shard-keyed measured-time feedback: mispriced shards flip
				// direction within a few iterations (warmed up below).
				d.Corrector = &core.Corrector{}
			}
			return d
		}
		type variant struct {
			name string
			desc *graphblas.Descriptor
			in   *graphblas.Vector[bool]
		}
		// The two uniform rows are the whole-operation plans the planner
		// could have picked: masked push off the sparse frontier, masked
		// pull off the word-packed twin. The hybrid rows shard
		// the same operation with per-shard decisions.
		// Each variant owns a private copy of the frontier: the pipeline
		// settles the input's storage format in place (a pull decision
		// word-packs a sparse frontier), and a shared vector would let one
		// variant's settling change what the next variant is benchmarked on.
		variants := []variant{
			{"push-uniform", mkDesc(graphblas.ForcePush, 0), f.Dup()},
			{"pull-uniform", mkDesc(graphblas.ForcePull, 0), fBitset.Dup()},
		}
		for _, s := range []int{1, 2, 4, 8, 16} {
			variants = append(variants, variant{
				fmt.Sprintf("hybrid-s%d", s), mkDesc(graphblas.Auto, s), f.Dup(),
			})
		}
		rows := make([][]string, 0, len(variants))
		bestUniform, bestHybrid := 0, 0
		for _, v := range variants {
			v := v
			// Warm the workspace and converge the per-shard correctors
			// before timing, so the measured rows reflect the feedback
			// loop's steady state, not its first guesses (the pooled prior
			// needs a few calls of both directions before cold shards read
			// realistic scales).
			for i := 0; i < 16; i++ {
				if _, err := graphblas.Into(w).Mask(visited).With(v.desc).MxV(sr, g, v.in); err != nil {
					return err
				}
			}
			// The allocation guard comes from one testing.Benchmark pass; the
			// ns statistic is the minimum over single-call walls. A mean
			// over a ~1s benchmark loop folds every preemption and cache
			// eviction into the estimate, and this host's jitter is larger
			// than the effects being measured — the noise is strictly
			// additive, so the fastest observed call is the closest
			// observation of the kernel's true cost.
			ar := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := graphblas.Into(w).Mask(visited).With(v.desc).MxV(sr, g, v.in); err != nil {
						b.Fatal(err)
					}
				}
			})
			walls := 10 * count
			best := math.Inf(1)
			for rep := 0; rep < walls; rep++ {
				t0 := time.Now()
				if _, err := graphblas.Into(w).Mask(visited).With(v.desc).MxV(sr, g, v.in); err != nil {
					return err
				}
				if ns := float64(time.Since(t0).Nanoseconds()); ns < best {
					best = ns
				}
			}
			ns := int(best)
			switch {
			case v.desc.Shards == 0 && (bestUniform == 0 || ns < bestUniform):
				bestUniform = ns
			case v.desc.Shards > 1 && (bestHybrid == 0 || ns < bestHybrid):
				bestHybrid = ns
			}
			rows = append(rows, []string{v.name, harness.I(ns), harness.I(int(ar.AllocsPerOp()))})
		}
		if err := emit(cfg, fmt.Sprintf("Shard sweep — %s (scale=%d, BFS level %d frontier, min of %d walls)", ds.name, ds.scale, depth, 10*count),
			[]string{"variant", "ns/op", "allocs/op"}, rows); err != nil {
			return err
		}
		speedup := "—"
		if bestHybrid > 0 && bestUniform > 0 {
			speedup = harness.F(float64(bestUniform) / float64(bestHybrid))
		}
		summary = append(summary, []string{ds.name, harness.I(bestUniform), harness.I(bestHybrid), speedup})

		// Per-shard decision record off a traced 8-shard run, warmed first
		// so the table shows the corrector-converged schedule: which
		// direction each destination range settled on, on what evidence.
		var plan core.Plan
		desc8 := mkDesc(graphblas.Auto, 8)
		desc8.Plan = &plan
		fTrace := f.Dup()
		for i := 0; i < 9; i++ {
			if _, err := graphblas.Into(w).Mask(visited).With(desc8).MxV(sr, g, fTrace); err != nil {
				return err
			}
		}
		shardRows := make([][]string, 0, len(plan.Shards))
		for i, sp := range plan.Shards {
			shardRows = append(shardRows, []string{
				harness.I(i), harness.I(sp.Lo), harness.I(sp.Hi), sp.Dir.String(),
				harness.F(sp.Edges), harness.F(sp.MaskAllowFrac),
				harness.F(sp.PushCost), harness.F(sp.PullCost),
				harness.F(sp.PredictedNs), harness.F(sp.MeasuredNs), sp.Rule,
			})
		}
		if err := emit(cfg, fmt.Sprintf("Per-shard decisions — %s, 8 shards (hybrid=%v)", ds.name, plan.Hybrid),
			[]string{"shard", "lo", "hi", "dir", "edges", "allow-frac", "push-cost", "pull-cost", "predicted-ns", "measured-ns", "rule"}, shardRows); err != nil {
			return err
		}
	}
	return emit(cfg, "Shard sweep summary — best hybrid vs best single-direction plan",
		[]string{"graph", "best-uniform-ns", "best-hybrid-ns", "speedup"}, summary)
}

// midBFSOperands reconstructs the most direction-contested mid-traversal
// BFS level of g: the sparse frontier, its word-packed twin and the
// visited bitset (the ¬mask). Candidate levels keep enough unvisited mass to matter (≥30%, or a masked pull
// touches a handful of rows and every strategy collapses to it) and stay
// below 30% density (beyond that pull dominates every range trivially);
// among them, a quick forced-direction probe picks the level where the
// whole-operation push and pull costs are closest. That contested level is
// exactly the mixed regime sharding exists for — where one whole-operation
// decision must be wrong for part of the index range — whereas a fixed
// density target lands on whichever side of the crossover the graph's
// frontier explosion happens to sample, measuring a regime where a single
// direction already wins everywhere.
func midBFSOperands(g *graphblas.Matrix[bool]) (f, fBitset, visited *graphblas.Vector[bool], depth int, err error) {
	n := g.NRows()
	// Start from a minimum-degree vertex: a peripheral source leaves the
	// hub rows unvisited when the wave reaches the crossover, which is
	// what makes the level genuinely mixed (a hub source swallows the hubs
	// into the visited set at level one, leaving nothing worth pulling).
	csr := g.CSR()
	src, srcDeg := 0, 1<<62
	for i := 0; i < n; i++ {
		if d := csr.Ptr[i+1] - csr.Ptr[i]; d >= 1 && d < srcDeg {
			src, srcDeg = i, d
		}
	}
	res, err := algorithms.BFS(g, src, algorithms.BFSOptions{})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	counts := map[int32]int{}
	maxDepth := int32(0)
	for _, d := range res.Depths {
		if d >= 0 {
			counts[d]++
			if d > maxDepth {
				maxDepth = d
			}
		}
	}
	var cands []int32
	peak := int32(0)
	seen := counts[0]
	for d := int32(1); d <= maxDepth; d++ {
		density := float64(counts[d]) / float64(n)
		unvisited := 1 - float64(seen)/float64(n)
		if counts[d] >= 2 && density <= 0.3 && unvisited >= 0.3 {
			cands = append(cands, d)
		}
		if counts[d] > counts[peak] {
			peak = d
		}
		seen += counts[d]
	}
	if len(cands) == 0 {
		cands = []int32{peak}
	}
	pick := cands[0]
	if len(cands) > 1 {
		ws := graphblas.NewWorkspace(n, n)
		w := graphblas.NewVector[bool](n)
		sr := graphblas.OrAndBool()
		best := math.Inf(1)
		for _, d := range cands {
			lf, lfb, lvis := levelOperands(n, res.Depths, d)
			pushNs := probeUniformNs(w, lvis, sr, g, lf, &graphblas.Descriptor{
				Transpose: true, StructuralComplement: true, StructureOnly: true,
				Direction: graphblas.ForcePush, Workspace: ws,
			})
			pullNs := probeUniformNs(w, lvis, sr, g, lfb, &graphblas.Descriptor{
				Transpose: true, StructuralComplement: true, StructureOnly: true,
				Direction: graphblas.ForcePull, Workspace: ws,
			})
			if pushNs <= 0 || pullNs <= 0 {
				continue
			}
			if c := math.Abs(math.Log(pushNs / pullNs)); c < best {
				best, pick = c, d
			}
		}
	}
	f, fBitset, visited = levelOperands(n, res.Depths, pick)
	return f, fBitset, visited, int(pick), nil
}

// levelOperands materializes the three operands of one BFS level: the
// sparse frontier (depth == pick), its word-packed twin and the visited
// bitset covering depths ≤ pick.
func levelOperands(n int, depths []int32, pick int32) (f, fBitset, visited *graphblas.Vector[bool]) {
	f = graphblas.NewVector[bool](n)
	visited = graphblas.NewVector[bool](n)
	visited.ToBitset()
	for v, d := range depths {
		if d == pick {
			_ = f.SetElement(v, true)
		}
		if d >= 0 && d <= pick {
			_ = visited.SetElement(v, true)
		}
	}
	fBitset = f.Dup()
	fBitset.ToBitset()
	return f, fBitset, visited
}

// probeUniformNs is the contest measurement behind midBFSOperands' level
// choice: two warmups, then the fastest of three timed calls (the same
// min-of-reps statistic the sweep itself reports).
func probeUniformNs(w, visited *graphblas.Vector[bool], sr graphblas.Semiring[bool], g *graphblas.Matrix[bool], in *graphblas.Vector[bool], desc *graphblas.Descriptor) float64 {
	for i := 0; i < 2; i++ {
		if _, err := graphblas.Into(w).Mask(visited).With(desc).MxV(sr, g, in); err != nil {
			return 0
		}
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := graphblas.Into(w).Mask(visited).With(desc).MxV(sr, g, in); err != nil {
			return 0
		}
		if ns := float64(time.Since(t0).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}
