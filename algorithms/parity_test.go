package algorithms_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/generate/mmio"
	"pushpull/graphblas"
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

// TestBFSAllOptionCombosMatchReference is the traversal parity table:
// forced-push ≡ forced-pull ≡ planned ≡ sharded ≡ every ablation ≡ the queue
// BFS reference, each with and without structure-only, on value-free
// patterns from the generators and the Matrix Market reader (directed,
// undirected, empty, single-vertex, self-loop, disconnected) and on
// value-carrying matrices. Four par workers, so -race sees the parallel
// kernels' chunks.
func TestBFSAllOptionCombosMatchReference(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4))
	rng := rand.New(rand.NewSource(60))
	gen := func(m *graphblas.Matrix[bool], err error) *graphblas.Matrix[bool] {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	patterns := map[string]*graphblas.Matrix[bool]{
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
