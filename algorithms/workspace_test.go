package algorithms

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
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

// TestWarmValuedRunsAllocateNoVertexState pins the workspace-slot rule for
// the valued traversals: a warm SSSP, CC or ParentBFS run on a pinned
// workspace, with its Out buffer supplied, keeps every O(n) working vector
// in the workspace's slots, so it allocates the same objects — closures and
// a typed pattern view — and within 1 KB the same bytes on kron:8 as on
// kron:12. Bytes catch a vector built per run even where the object count
// does not move (one NewVector per run allocates on both graphs alike). A
// Context and a calibrated Model, as a served query passes them, add no
// object: the cancellation token, the descriptors and the corrector are
// the workspace's.
func TestWarmValuedRunsAllocateNoVertexState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type cost struct{ objects, bytes uint64 }
	costs := make(map[string][]cost)
	scales := []int{8, 12}
	// The served inputs: a cancellable context (CC takes no model).
	const served = " +Context+Model"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model := &core.CostModel{GatherNs: 4.03, ProbeWordNs: 0.714, RowNs: 13.1, SortNs: 1.11, SetupNs: 227}
	for _, scale := range scales {
		rng := rand.New(rand.NewSource(105))
		a := rmatUndirected(rng, scale, 16)
		wa := weightedFromBool(rng, a)
		n := a.NRows()
		ws := graphblas.NewWorkspace(n, n)
		outF64, outU32, out64 := make([]float64, n), make([]uint32, n), make([]int64, n)
		for _, q := range []struct {
			name string
			run  func() error
		}{
			{"SSSP", func() error {
				_, err := SSSP(wa, 3, SSSPOptions{Workspace: ws, Out: outF64})
				return err
			}},
			{"ConnectedComponentsRun", func() error {
				_, err := ConnectedComponentsRun(a, CCOptions{Workspace: ws, Out: outU32})
				return err
			}},
			{"ParentBFSRun", func() error {
				_, err := ParentBFSRun(a, 3, ParentBFSOptions{Workspace: ws, Out: out64})
				return err
			}},
			{"SSSP" + served, func() error {
				_, err := SSSP(wa, 3, SSSPOptions{Workspace: ws, Out: outF64, Context: ctx, Model: model})
				return err
			}},
			{"ConnectedComponentsRun" + served, func() error {
				_, err := ConnectedComponentsRun(a, CCOptions{Workspace: ws, Out: outU32, Context: ctx})
				return err
			}},
			{"ParentBFSRun" + served, func() error {
				_, err := ParentBFSRun(a, 3, ParentBFSOptions{Workspace: ws, Out: out64, Context: ctx, Model: model})
				return err
			}},
		} {
			// Two warming runs (the first sizes the slots, the second any
			// buffer that only grows on a later round), then the least of
			// three: MemStats is process-wide, so a stray allocation
			// elsewhere only ever adds.
			least := cost{^uint64(0), ^uint64(0)}
			for rep := 0; rep < 5; rep++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := q.run()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if rep >= 2 {
					least.objects = min(least.objects, after.Mallocs-before.Mallocs)
					least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
				}
			}
			t.Logf("kron:%d %-37s %d objects, %d B per run", scale, q.name, least.objects, least.bytes)
			costs[q.name] = append(costs[q.name], least)
		}
	}
	for name, c := range costs {
		if c[0].objects != c[1].objects || max(c[0].bytes, c[1].bytes)-min(c[0].bytes, c[1].bytes) > 1<<10 {
			t.Errorf("warm %s allocates %+v on kron:%v, want the same objects and bytes within 1 KB", name, c, scales)
		}
		if base, ok := strings.CutSuffix(name, served); ok {
			plain := costs[base]
			for i := range c {
				if c[i].objects != plain[i].objects {
					t.Errorf("warm %s allocates %d objects on kron:%d, %d without them, want the same", name, c[i].objects, scales[i], plain[i].objects)
				}
			}
		}
	}
}
