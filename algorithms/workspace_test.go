package algorithms

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// TestBFSRepeatedRunsBitIdentical runs BFS several times back to back —
// the pooled workspaces make later runs reuse every buffer the first run
// dirtied — and asserts the depths are bit-identical to the first run and
// to the plain reference traversal. Stale workspace state (view presence
// scratch, mask words, gather residue) would show up here.
func TestBFSRepeatedRunsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := randUndirected(rng, 120, 0.05)
	want := refBFS(a, 3)
	for _, opt := range []BFSOptions{{}, {ForcePull: true}, {DisableDirectionOpt: true}} {
		var first []int32
		for run := 0; run < 3; run++ {
			res, err := BFS(a, 3, opt)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = res.Depths
				for i := range want {
					if want[i] != first[i] {
						t.Fatalf("opt %+v: depth[%d] = %d, reference %d", opt, i, first[i], want[i])
					}
				}
				continue
			}
			for i := range first {
				if res.Depths[i] != first[i] {
					t.Fatalf("opt %+v run %d: depth[%d] = %d, first run had %d", opt, run, i, res.Depths[i], first[i])
				}
			}
		}
	}
}

// TestPageRankRepeatedRunsBitIdentical asserts float-exact reproducibility
// of PageRank across runs sharing pooled workspaces: identical inputs must
// give identical bits, or workspace state leaked between runs.
func TestPageRankRepeatedRunsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randUndirected(rng, 90, 0.06)
	firstRes, err := PageRank(a, PageRankOptions{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := PageRank(a, PageRankOptions{MaxIter: 30})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Ranks {
			if math.Float64bits(res.Ranks[i]) != math.Float64bits(firstRes.Ranks[i]) {
				t.Fatalf("run %d: rank[%d] = %x, first run had %x", run, i,
					math.Float64bits(res.Ranks[i]), math.Float64bits(firstRes.Ranks[i]))
			}
		}
	}
}

// TestBFSIterationSteadyStateAllocs drives one full direction-optimized
// BFS iteration — the masked matvec that plans its own direction (push, or
// pull off the word-packed visited set), depth bookkeeping, visited
// assign — with a pinned workspace, and asserts the warmed-up steady state
// allocates nothing. The iteration is arranged to be idempotent
// (re-discovering an already-final frontier) so it can run repeatedly
// under testing.AllocsPerRun.
func TestBFSIterationSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(31))
	n := 300
	a := randUndirected(rng, n, 0.03)
	sr := graphblas.OrAndBool()

	// Mid-traversal state: level-1 frontier, source+level-1 visited.
	res, err := BFS(a, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := graphblas.NewVector[bool](n)
	visited := graphblas.NewVector[bool](n)
	visited.ToBitset()
	_ = visited.SetElement(0, true)
	for v, d := range res.Depths {
		if d == 1 {
			_ = f.SetElement(v, true)
			_ = visited.SetElement(v, true)
		}
	}
	depths := make([]int32, n)

	ws := graphblas.AcquireWorkspace(n, n)
	defer ws.Release()
	var plan core.Plan
	desc := &graphblas.Descriptor{Transpose: true, StructureOnly: true, StructuralComplement: true, Workspace: ws, Plan: &plan}
	out := graphblas.NewVector[bool](n)

	for _, dirCase := range []struct {
		name string
		dir  graphblas.Direction
	}{{"auto", graphblas.Auto}, {"push", graphblas.ForcePush}, {"pull", graphblas.ForcePull}} {
		iteration := func() {
			desc.Direction = dirCase.dir
			if _, err := graphblas.Into(out).Mask(visited).PullInput(visited).With(desc).MxV(sr, a, f); err != nil {
				t.Fatal(err)
			}
			out.Iterate(func(i int, _ bool) bool {
				if depths[i] < 0 {
					depths[i] = 2
				}
				return true
			})
			if err := graphblas.Into(visited).AssignVector(out); err != nil {
				t.Fatal(err)
			}
		}
		iteration() // warm buffers; also settles visited to a fixpoint
		iteration()
		if avg := testing.AllocsPerRun(20, iteration); avg != 0 {
			t.Errorf("%s iteration: %v allocs in steady state, want 0", dirCase.name, avg)
		}
	}
}
