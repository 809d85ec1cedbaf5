// Top-level benchmarks: one testing.B family per paper table/figure, thin
// wrappers over internal/harness so `go test -bench=.` regenerates every
// experiment's numbers at a laptop-friendly scale. cmd/ppbench runs the
// same drivers with configurable scale and pretty tables.
package pushpull_test

import (
	"fmt"
	"testing"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/frameworks"
	"pushpull/internal/harness"
)

// benchScale keeps each bench iteration in the low milliseconds.
const benchScale = 13

// benchGraph caches the kron stand-in across benchmarks.
var benchGraph *graphblas.Matrix[bool]

func kron() *graphblas.Matrix[bool] {
	if benchGraph == nil {
		g, err := harness.KronDataset(benchScale).Build()
		if err != nil {
			panic(err)
		}
		benchGraph = g
	}
	return benchGraph
}

// BenchmarkTable1CountedSweep runs the four-variant sweep behind Table 1
// and Figure 2: the serving kernels on one pinned workspace, counting their
// work as they run. The counts are what ppbench table1 prints; here the
// sweep's own cost is the regression guard.
func BenchmarkTable1CountedSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := harness.MicroSweep(benchScale-2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 times each matvec variant at a mid-sweep point — the
// Figure 2 series, one sub-benchmark per curve.
func BenchmarkFig2(b *testing.B) {
	for _, variant := range []string{"row-nomask", "row-mask", "col-nomask", "col-mask"} {
		b.Run(variant, func(b *testing.B) {
			// The Boolean semiring's general form multiplies matrix
			// values; the generated graph is pattern-only.
			g := graphblas.ValuedAs(kron(), true)
			n := g.NRows()
			sr := graphblas.OrAndBool()
			// Mid-sweep supports: frontier at n/8, mask at n/12.
			u := graphblas.NewVector[bool](n)
			for i := 0; i < n; i += 8 {
				_ = u.SetElement(i, true)
			}
			mask := graphblas.NewVector[bool](n)
			for i := 0; i < n; i += 12 {
				_ = mask.SetElement(i, true)
			}
			mask.ToBitset()
			// A forced direction leaves formats alone: the pull reads u as
			// a bitset, the push gathers its sparse list (and, this dense a
			// frontier, scatters without the radix sort).
			desc := &graphblas.Descriptor{}
			switch variant {
			case "row-nomask", "row-mask":
				desc.Direction = graphblas.ForcePull
				u.ToBitset()
			default:
				desc.Direction = graphblas.ForcePush
			}
			masked := variant == "row-mask" || variant == "col-mask"
			w := graphblas.NewVector[bool](n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if masked {
					_, err = graphblas.Into(w).Mask(mask).With(desc).MxV(sr, g, u)
				} else {
					_, err = graphblas.Into(w).With(desc).MxV(sr, g, u)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 runs BFS under each cumulative optimization
// configuration — the Table 2 rows.
func BenchmarkTable2(b *testing.B) {
	configs := []struct {
		name string
		opt  algorithms.BFSOptions
	}{
		{"baseline", algorithms.AllOff()},
		{"structure-only", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			return o
		}()},
		{"change-of-direction", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			o.DisableDirectionOpt = false
			return o
		}()},
		{"masking", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			o.DisableDirectionOpt = false
			o.DisableMasking = false
			return o
		}()},
		{"early-exit", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			o.DisableDirectionOpt = false
			o.DisableMasking = false
			o.DisableEarlyExit = false
			return o
		}()},
		{"operand-reuse-full", algorithms.BFSOptions{}},
	}
	g := kron()
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var edges int64
			for i := 0; i < b.N; i++ {
				res, err := algorithms.BFS(g, 0, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				edges = res.EdgesTraversed
			}
			b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
		})
	}
}

// BenchmarkFig5Kernels times the two masked kernels on a realistic
// mid-BFS frontier — the Figure 5b series.
func BenchmarkFig5Kernels(b *testing.B) {
	g := kron()
	n := g.NRows()
	// Build the level-2 frontier of a real BFS.
	res, err := algorithms.BFS(g, 0, algorithms.BFSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	frontier := graphblas.NewVector[bool](n)
	visited := graphblas.NewVector[bool](n)
	visited.ToBitset()
	for v, d := range res.Depths {
		if d == 1 {
			_ = frontier.SetElement(v, true)
		}
		if d >= 0 && d <= 1 {
			_ = visited.SetElement(v, true)
		}
	}
	sr := graphblas.OrAndBool()
	b.Run("push-masked", func(b *testing.B) {
		desc := &graphblas.Descriptor{Transpose: true, StructuralComplement: true,
			Direction: graphblas.ForcePush, StructureOnly: true}
		w := graphblas.NewVector[bool](n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fc := frontier.Dup()
			if _, err := graphblas.Into(w).Mask(visited).With(desc).MxV(sr, g, fc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pull-masked", func(b *testing.B) {
		desc := &graphblas.Descriptor{Transpose: true, StructuralComplement: true,
			Direction: graphblas.ForcePull, StructureOnly: true}
		w := graphblas.NewVector[bool](n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graphblas.Into(w).Mask(visited).With(desc).MxV(sr, g, visited); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6Traversals runs the push-only and pull-only whole
// traversals whose per-iteration samples make up Figure 6.
func BenchmarkFig6Traversals(b *testing.B) {
	g := kron()
	b.Run("push-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.BFS(g, 0, algorithms.BFSOptions{DisableDirectionOpt: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pull-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.BFS(g, 0, algorithms.BFSOptions{ForcePull: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameworks is the Figure 7 comparison: every framework on the
// kron (scale-free) and roadnet (mesh) stand-ins.
func BenchmarkFrameworks(b *testing.B) {
	for _, dsName := range []string{"kron", "roadnet"} {
		ds, err := harness.FindDataset(benchScale, dsName)
		if err != nil {
			b.Fatal(err)
		}
		g, err := ds.Build()
		if err != nil {
			b.Fatal(err)
		}
		fg := frameworks.FromMatrix(g)
		for _, r := range frameworks.All() {
			runner := r
			b.Run(fmt.Sprintf("%s/%s", dsName, runner.Name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runner.BFS(fg, 0)
				}
			})
		}
		b.Run(fmt.Sprintf("%s/ThisWork", dsName), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := algorithms.BFS(g, 0, algorithms.BFSOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiBFS measures the bit-parallel 64-source traversal against
// 64 sequential BFS runs (the batched-BC motivation of Section 5.6).
func BenchmarkMultiBFS(b *testing.B) {
	g := kron()
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = (i * 131) % g.NRows()
	}
	b.Run("batched-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.MultiBFS(g, sources); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				if _, err := algorithms.BFS(g, s, algorithms.BFSOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkGeneralityAlgorithms covers the Section 5.6 generality set.
func BenchmarkGeneralityAlgorithms(b *testing.B) {
	g := kron()
	b.Run("sssp", func(b *testing.B) {
		w, err := harness.WeightedKron(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.SSSP(w, 0, algorithms.SSSPOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pagerank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.PageRank(g, algorithms.PageRankOptions{MaxIter: 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive-pagerank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.PageRank(g, algorithms.PageRankOptions{MaxIter: 20, AdaptiveTol: 1e-7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.ConnectedComponents(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parentbfs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.ParentBFS(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algorithms.MIS(g, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
