package algorithms_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/internal/core"
)

// FuzzModelDirections treats a random positive cost model as a generator of
// push/pull direction sequences: the planner is deterministic given the
// model, so each draw drives the traversals through a different mix of
// kernels, and every mix must give the reference answer. Each coefficient
// is drawn log-uniform in [e⁻⁶, e⁶]; the graph is RMAT at scale 6–11,
// directed when the seed is odd. BFS must match the queue BFS, SSSP must
// equal Dijkstra bit for bit, ParentBFS must give each vertex its smallest
// in-neighbour one level up, and BC must match Brandes within the BC tests' 1e-6.
func FuzzModelDirections(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, scale uint8) {
		rng := rand.New(rand.NewSource(seed))
		var model core.CostModel
		for term := range core.Terms {
			*model.Coef(core.Term(term)) = math.Exp(12*rng.Float64() - 6)
		}
		g, err := generate.RMAT(generate.RMATConfig{Scale: 6 + int(scale%6), Undirected: seed&1 == 0, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		wg, err := generate.WeightedCopy(g, 1, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NRows()
		sources := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		for _, src := range sources {
			where := fmt.Sprintf("seed %d scale %d src %d", seed, 6+scale%6, src)
			depths := algorithms.RefBFS(g, src)
			res, err := algorithms.BFS(g, src, algorithms.BFSOptions{Model: &model})
			if err != nil {
				t.Fatal(err)
			}
			algorithms.CheckDepths(t, "BFS "+where, res.Depths, depths)
			parents, err := algorithms.ParentBFSRun(g, src, algorithms.ParentBFSOptions{Model: &model})
			if err != nil {
				t.Fatal(err)
			}
			algorithms.CheckParents(t, "ParentBFS "+where, g, src, parents, depths)
			dist, err := algorithms.SSSP(wg, src, algorithms.SSSPOptions{Model: &model})
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range algorithms.RefDijkstra(wg, src) {
				if math.Float64bits(dist[i]) != math.Float64bits(d) {
					t.Fatalf("SSSP %s: dist[%d] = %v, Dijkstra %v", where, i, dist[i], d)
				}
			}
		}
		bc, err := algorithms.BetweennessCentrality(g, sources, algorithms.BCOptions{Model: &model})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range algorithms.RefBC(g, sources) {
			if math.Abs(bc[i]-want) > 1e-6 {
				t.Fatalf("BC seed %d: bc[%d] = %g, Brandes %g", seed, i, bc[i], want)
			}
		}
	})
}
