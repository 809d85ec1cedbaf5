package serve

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// TestWarmWorkerKernelPathAllocs pins the serving pool's zero-allocation
// claim: after real queries have warmed a worker's pinned workspace, the
// kernel path a repeat query drives through that same arena — masked
// matvec in both directions plus the visited merge — allocates nothing.
// The per-query envelope (task, context, channel) allocates a fixed few
// records, the same on any graph: result arrays are borrowed from the
// result pool and working vectors are the arena's slots
// (TestSummaryQueryAllocationIndependentOfVertices).
func TestWarmWorkerKernelPathAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := kronGraph(t, 8)
	n := g.Mat.NRows()
	srv, err := New(Config{Workers: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Warm the worker's pinned arena with real traffic, keeping one full
	// result to rebuild mid-traversal state from.
	var depths []int32
	for i := 0; i < 3; i++ {
		res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", Full: true})
		if err != nil {
			t.Fatal(err)
		}
		depths = res.Payload.Depths
	}

	// The pool is idle now (Do's completion synchronizes with the worker),
	// so the test may drive the pinned arena directly — the same arena a
	// repeat query would run on.
	w := srv.workers[0]
	ws := w.pinned[[2]int{n, n}]
	if ws == nil {
		t.Fatal("warm worker has no pinned workspace for the served shape")
	}

	// Mid-traversal state: level-1 frontier, source+level-1 visited.
	sr := graphblas.OrAndBool()
	f := graphblas.NewVector[bool](n)
	visited := graphblas.NewVector[bool](n)
	visited.ToBitset()
	_ = visited.SetElement(0, true)
	for v, d := range depths {
		if d == 1 {
			_ = f.SetElement(v, true)
			_ = visited.SetElement(v, true)
		}
	}
	out := graphblas.NewVector[bool](n)
	desc := &graphblas.Descriptor{
		Transpose:            true,
		StructureOnly:        true,
		StructuralComplement: true,
		Workspace:            ws,
	}

	for _, dirCase := range []struct {
		name string
		dir  graphblas.Direction
	}{{"push", graphblas.ForcePush}, {"pull", graphblas.ForcePull}} {
		iteration := func() {
			desc.Direction = dirCase.dir
			input := f
			if dirCase.dir == graphblas.ForcePull {
				input = visited
			}
			if _, err := graphblas.Into(out).Mask(visited).With(desc).MxV(sr, g.Mat, input); err != nil {
				t.Fatal(err)
			}
			if err := graphblas.Into(visited).AssignVector(out); err != nil {
				t.Fatal(err)
			}
		}
		iteration() // settle visited to its fixpoint for this direction
		iteration()
		if avg := testing.AllocsPerRun(20, iteration); avg != 0 {
			t.Errorf("%s kernel path on warm pinned workspace: %v allocs, want 0", dirCase.name, avg)
		}
	}
}

// TestPostReloadKernelPathAllocs pins the reload half of the zero-alloc
// claim: a reload that swaps in a new snapshot of the same shape must not
// cost the worker its pinned arena — the prune keeps live shapes — so warm
// queries return to the allocation-free kernel path immediately on the new
// generation.
func TestPostReloadKernelPathAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := kronGraph(t, 8)
	n := g.Mat.NRows()
	srv, err := NewFromSources(Config{Workers: 1},
		[]GraphSource{{Name: "kron", Load: func() (*Graph, error) { return NewGraph("kron", g.Mat), nil }}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Warm the worker's arena, then swap generations underneath it.
	var depths []int32
	for i := 0; i < 3; i++ {
		res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", Full: true})
		if err != nil {
			t.Fatal(err)
		}
		depths = res.Payload.Depths
	}
	shape := [2]int{n, n}
	warmWS := srv.workers[0].pinned[shape]
	if warmWS == nil {
		t.Fatal("warm worker has no pinned workspace")
	}
	if rep := srv.Reload(context.Background()); rep.Failed != 0 {
		t.Fatalf("reload: %+v", rep)
	}

	// The first post-reload query triggers the worker's stale-shape prune;
	// the shape is still live, so the warm arena must survive it.
	res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 {
		t.Fatalf("post-reload query ran on gen %d, want 2", res.Gen)
	}
	if srv.workers[0].pinned[shape] != warmWS {
		t.Fatal("same-shape reload dropped the warm pinned workspace")
	}

	// The kernel path through that surviving arena is still allocation-free.
	sr := graphblas.OrAndBool()
	f := graphblas.NewVector[bool](n)
	visited := graphblas.NewVector[bool](n)
	visited.ToBitset()
	_ = visited.SetElement(0, true)
	for v, d := range depths {
		if d == 1 {
			_ = f.SetElement(v, true)
			_ = visited.SetElement(v, true)
		}
	}
	out := graphblas.NewVector[bool](n)
	desc := &graphblas.Descriptor{
		Transpose:            true,
		StructureOnly:        true,
		StructuralComplement: true,
		Workspace:            warmWS,
	}
	for _, dirCase := range []struct {
		name string
		dir  graphblas.Direction
	}{{"push", graphblas.ForcePush}, {"pull", graphblas.ForcePull}} {
		iteration := func() {
			desc.Direction = dirCase.dir
			input := f
			if dirCase.dir == graphblas.ForcePull {
				input = visited
			}
			if _, err := graphblas.Into(out).Mask(visited).With(desc).MxV(sr, g.Mat, input); err != nil {
				t.Fatal(err)
			}
			if err := graphblas.Into(visited).AssignVector(out); err != nil {
				t.Fatal(err)
			}
		}
		iteration()
		iteration()
		if avg := testing.AllocsPerRun(20, iteration); avg != 0 {
			t.Errorf("post-reload %s kernel path: %v allocs, want 0", dirCase.name, avg)
		}
	}
}

// TestSummaryQueryAllocationIndependentOfVertices is the serving twin of
// algorithms' TestWarmValuedRunsAllocateNoVertexState: a warm worker keeps
// every algorithm's O(n) working vectors in its pinned workspace and borrows
// the result array from the result pool, so what one summary Server.Do
// allocates — the query's context and its timer (tasks are recycled, and
// every algorithm runs on descriptors its workspace lends), plus the typed
// pattern view of CC, ParentBFS and PageRank — is the same on kron:8,
// kron:12 and kron:14, for every algorithm the server offers, and stays
// under that algorithm's ceiling. It runs once with the unit model and once
// with a calibrated one, as the benchmark deployment serves (-tune), where
// the run's corrector is engaged too.
func TestSummaryQueryAllocationIndependentOfVertices(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts, so a borrowed array may be a fresh one")
	}
	// No collection (it would empty the pool) and one P: a buffer put back
	// sits in that P's private slot, which a worker resumed on another P
	// cannot reach, and the miss would be charged to the query.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Bytes per warm summary query: the figures measured on linux/amd64
	// with Go 1.24 (bfs and sssp 288, cc, parentbfs and pagerank 384),
	// plus 32 B — one size-class step of any one of the query's objects,
	// all under 256 B — for toolchains whose context and timer round
	// differently.
	const slack = 32
	ceiling := map[string]uint64{"bfs": 288 + slack, "sssp": 288 + slack, "cc": 384 + slack, "parentbfs": 384 + slack, "pagerank": 384 + slack}
	// bench/pptune.json's coefficients.
	calibrated := &core.CostModel{
		GatherNs: 4.03, ProbeWordNs: 0.714, RowNs: 13.1, SortNs: 1.11, SetupNs: 227,
	}
	scales := []int{8, 12, 14}
	for _, model := range []struct {
		name  string
		model *core.CostModel
	}{{"unit", nil}, {"calibrated", calibrated}} {
		perQuery := make(map[string][]uint64)
		for _, scale := range scales {
			srv, err := New(Config{Workers: 1, Model: model.model}, kronGraph(t, scale))
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range AlgorithmNames() {
				got := ^uint64(0)
				// Three warming calls, then the least of three: TotalAlloc is
				// process-wide, so a stray allocation elsewhere only ever adds.
				for rep := 0; rep < 6; rep++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					_, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: algo, Source: 3})
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if rep >= 3 {
						got = min(got, after.TotalAlloc-before.TotalAlloc)
					}
				}
				t.Logf("%s model, kron:%d summary %-9s %6d B/query", model.name, scale, algo, got)
				perQuery[algo] = append(perQuery[algo], got)
			}
			srv.Close()
		}
		for _, algo := range AlgorithmNames() {
			b := perQuery[algo]
			if diff := slices.Max(b) - slices.Min(b); diff > 2<<10 {
				t.Errorf("%s model: a summary %s allocates %v B on kron:%v: %d B apart, want ≤ 2 KB (nothing proportional to n)", model.name, algo, b, scales, diff)
			}
			if slices.Max(b) > ceiling[algo] {
				t.Errorf("%s model: a summary %s allocates %v B on kron:%v, want ≤ %d B", model.name, algo, b, scales, ceiling[algo])
			}
		}
	}
}
