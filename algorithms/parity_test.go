package algorithms_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/generate/mmio"
	"pushpull/graphblas"
	"pushpull/internal/core"
	"pushpull/internal/par"
)

// mmPattern reads a pattern matrix from Matrix Market text.
func mmPattern(t *testing.T, text string) *graphblas.Matrix[bool] {
	t.Helper()
	m, err := mmio.ReadPattern(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// parityPatterns is the graph set both parity tables run on: value-free
// patterns from the generators and the Matrix Market reader — directed,
// undirected, grid, single-vertex, empty, self-loop, disconnected.
func parityPatterns(t *testing.T) map[string]*graphblas.Matrix[bool] {
	t.Helper()
	gen := func(m *graphblas.Matrix[bool], err error) *graphblas.Matrix[bool] {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return map[string]*graphblas.Matrix[bool]{
		"rmat-directed":   gen(generate.RMAT(generate.RMATConfig{Scale: 7, EdgeFactor: 4, Seed: 3})),
		"rmat-undirected": gen(generate.RMAT(generate.RMATConfig{Scale: 7, EdgeFactor: 4, Undirected: true, Seed: 4})),
		"grid":            gen(generate.Grid2D(9, 7)),
		"single-vertex":   gen(generate.Path(1)),
		"empty":           mmPattern(t, "%%MatrixMarket matrix coordinate pattern general\n6 6 0\n"),
		"self-loop": mmPattern(t, "%%MatrixMarket matrix coordinate pattern general\n"+
			"5 5 6\n1 1\n1 2\n2 3\n4 4\n5 3\n3 1\n"),
		"disconnected": mmPattern(t, "%%MatrixMarket matrix coordinate pattern symmetric\n"+
			"10 10 5\n2 1\n3 2\n6 5\n7 6\n9 9\n"),
	}
}

// TestBFSAllOptionCombosMatchReference is the traversal parity table:
// forced-push ≡ forced-pull ≡ planned ≡ every ablation ≡ the queue
// BFS reference, each with and without structure-only, on value-free
// patterns from the generators and the Matrix Market reader (directed,
// undirected, empty, single-vertex, self-loop, disconnected) and on
// value-carrying matrices. Four par workers, so -race sees the parallel
// kernels' chunks.
func TestBFSAllOptionCombosMatchReference(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(60))
	patterns := parityPatterns(t)
	graphs := map[string]*graphblas.Matrix[bool]{
		"valued-random":     algorithms.RandUndirected(rng, 80, 0.06),
		"valued-path":       algorithms.PathGraph(50),
		"valued-star":       algorithms.StarPlusClique(40, 10),
		"valued-disconnect": algorithms.UndirectedFromEdges(10, [][2]int{{0, 1}, {1, 2}, {4, 5}}),
	}
	for name, g := range patterns {
		if g.CSR().Val != nil || g.CSC().Val != nil {
			t.Fatalf("%s: generated and loaded graphs must be pattern-only", name)
		}
		graphs[name] = g
	}
	if patterns["rmat-directed"].Symmetric() || patterns["self-loop"].Symmetric() || !patterns["disconnected"].Symmetric() {
		t.Fatal("the directed inputs must be asymmetric and the symmetric file symmetric")
	}
	for gname, g := range graphs {
		for src := 0; src < g.NRows(); src += 7 {
			want := algorithms.RefBFS(g, src)
			for oname, opt := range algorithms.OptionMatrix() {
				for _, valued := range []bool{opt.DisableStructureOnly, !opt.DisableStructureOnly} {
					opt.DisableStructureOnly = valued
					res, err := algorithms.BFS(g, src, opt)
					if err != nil {
						t.Fatalf("%s/%s src=%d valued=%v: %v", gname, oname, src, valued, err)
					}
					algorithms.CheckDepths(t, fmt.Sprintf("%s/%s src=%d valued=%v", gname, oname, src, valued), res.Depths, want)
				}
			}
		}
		if _, pattern := patterns[gname]; pattern != (g.CSR().Val == nil) {
			t.Fatalf("%s: BFS changed whether its input stores values", gname)
		}
	}
}

func checkClose(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(math.Abs(got[i]-want[i]) <= 1e-9) {
			t.Fatalf("%s: [%d]=%g want %g", ctx, i, got[i], want[i])
		}
	}
}

// junkOut returns nil (the algorithm allocates its result) or an n-element
// Out pre-filled with a value no answer holds, so a position the run forgot
// to overwrite shows.
func junkOut[T any](with bool, n int, junk T) []T {
	if !with {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = junk
	}
	return out
}

// TestServedAlgorithmsMatchReference is the parity table for the five
// algorithms ppserve answers: BFS, ParentBFS, SSSP, ConnectedComponents and
// PageRank against their references on the parity graph set, each under the
// default options and a calibrated cost model where the options struct has
// the field, with and without a caller Out.
func TestServedAlgorithmsMatchReference(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4))
	model := &core.CostModel{
		GatherNs: 2.6, ProbeWordNs: 0.56, ProbeDenseNs: 0.1,
		RowNs: 7.6, ScatterNs: 1.7, SortNs: 0.85, SetupNs: 250,
	}
	variants := []struct {
		name  string
		model *core.CostModel
	}{{"default", nil}, {"model", model}}
	const prTol, prIters = 1e-12, 500
	for gname, g := range parityPatterns(t) {
		n := g.NRows()
		wg := algorithms.WeightedFromBool(nil, g)
		wantLabels := algorithms.RefComponents(g)
		wantRanks := algorithms.RefPageRank(g, 0.85, prTol, prIters)
		// The references run once per graph and root; every variant, with
		// and without Out, must reproduce them.
		for _, withOut := range []bool{false, true} {
			ctx := fmt.Sprintf("%s out=%v", gname, withOut)
			labels, err := algorithms.ConnectedComponentsRun(g, algorithms.CCOptions{Out: junkOut(withOut, n, ^uint32(0))})
			if err != nil {
				t.Fatalf("CC %s: %v", ctx, err)
			}
			if !slices.Equal(labels, wantLabels) {
				t.Fatalf("CC %s: labels %v want %v", ctx, labels, wantLabels)
			}
			for _, v := range variants {
				pr, err := algorithms.PageRank(g, algorithms.PageRankOptions{
					Tol: prTol, MaxIter: prIters, Model: v.model, Out: junkOut(withOut, n, -1.0),
				})
				if err != nil {
					t.Fatalf("PageRank %s/%s: %v", ctx, v.name, err)
				}
				checkClose(t, "PageRank "+ctx+"/"+v.name, pr.Ranks, wantRanks)
			}
		}
		for src := 0; src < n; src += 7 {
			wantDepths := algorithms.RefBFS(g, src)
			wantDist := algorithms.RefDijkstra(wg, src)
			for _, v := range variants {
				for _, withOut := range []bool{false, true} {
					ctx := fmt.Sprintf("%s/%s src=%d out=%v", gname, v.name, src, withOut)
					res, err := algorithms.BFS(g, src, algorithms.BFSOptions{
						Model: v.model, Out: junkOut(withOut, n, int32(-7)),
					})
					if err != nil {
						t.Fatalf("BFS %s: %v", ctx, err)
					}
					algorithms.CheckDepths(t, "BFS "+ctx, res.Depths, wantDepths)
					parents, err := algorithms.ParentBFSRun(g, src, algorithms.ParentBFSOptions{
						Model: v.model, Out: junkOut(withOut, n, int64(-7)),
					})
					if err != nil {
						t.Fatalf("ParentBFS %s: %v", ctx, err)
					}
					algorithms.CheckParents(t, "ParentBFS "+ctx, g, src, parents, wantDepths)
					dist, err := algorithms.SSSP(wg, src, algorithms.SSSPOptions{
						Model: v.model, Out: junkOut(withOut, n, -1.0),
					})
					if err != nil {
						t.Fatalf("SSSP %s: %v", ctx, err)
					}
					checkClose(t, "SSSP "+ctx, dist, wantDist)
				}
			}
		}
	}
}

// TestMultiBFSFull64Lanes checks every one of 64 lanes against the queue
// BFS, on a small random graph and on an RMAT graph where single-source BFS
// pulls a level — so the lane matvec pulls there too, and pull's all-lanes
// early exit runs.
func TestMultiBFSFull64Lanes(t *testing.T) {
	kron, err := generate.RMAT(generate.RMATConfig{Scale: 12, EdgeFactor: 16, Undirected: true, Seed: 105})
	if err != nil {
		t.Fatal(err)
	}
	pulled := false
	trace := func(s algorithms.IterStats) { pulled = pulled || s.Direction == core.Pull }
	if _, err := algorithms.BFS(kron, 0, algorithms.BFSOptions{Trace: trace}); err != nil || !pulled {
		t.Fatalf("single-source BFS on the RMAT graph never pulled (err %v)", err)
	}
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i * 2
	}
	for gi, g := range []*graphblas.Matrix[bool]{algorithms.RandUndirected(rand.New(rand.NewSource(111)), 128, 0.05), kron} {
		got, err := algorithms.MultiBFS(g, sources)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 64 {
			t.Fatalf("graph %d: want 64 depth arrays, got %d", gi, len(got))
		}
		for si, src := range sources {
			algorithms.CheckDepths(t, fmt.Sprintf("graph %d lane %d", gi, si), got[si], algorithms.RefBFS(g, src))
		}
	}
}
