package algorithms_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

// when is b if on, else nil: how the guard below supplies an Out buffer or
// leaves the algorithm to allocate its own.
func when[T any](on bool, b []T) []T {
	if on {
		return b
	}
	return nil
}

// TestPerQueryAllocationIsLinearInVertices is the guard that keeps per-query
// matrix copies from coming back: one call of each algorithm the server
// offers over a pattern view may allocate O(n) result and working vectors,
// never O(nnz). Before the second-form semirings a kron:14 call allocated
// 11.8 MB (PageRank), 2.2 MB (CC) and 2.1 MB (ParentBFS) against n = 16384;
// the bound below is 1.6 MB there and does not move with the edge count.
// BFS has its own, tighter limit: its frontier and visited set are the
// workspace's, so a warmed call allocates the depth vector it returns
// (4 bytes a vertex) and a few fixed-size records.
//
// The five algorithms with an Out buffer are measured a second time with one
// supplied: the call must then allocate less by the whole result array (width
// bytes a vertex), and BFS, whose result was its one O(n) allocation, nothing
// that grows with n at all.
func TestPerQueryAllocationIsLinearInVertices(t *testing.T) {
	if algorithms.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts, so pooled workspaces re-allocate")
	}
	// No GC during the measurement: a cycle would empty the workspace pools
	// BC and MIS draw from and charge the refill to the call.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slack = 4 << 10 // fixed-size records: planner, descriptors, closures
	for _, scale := range []int{12, 14} {
		a, err := generate.RMAT(generate.RMATConfig{Scale: scale, EdgeFactor: 16, Undirected: true, Seed: 105})
		if err != nil {
			t.Fatal(err)
		}
		wa, err := generate.WeightedCopy(a, 1, 10, 99)
		if err != nil {
			t.Fatal(err)
		}
		n := a.NRows()
		ws := graphblas.NewWorkspace(n, n)
		out32, out64, outU32, outF64 := make([]int32, n), make([]int64, n), make([]uint32, n), make([]float64, n)
		limit := uint64(96*n + 16<<10)
		for _, q := range []struct {
			name string
			// run makes one call, with the algorithm's Out buffer when
			// buffered is set.
			run   func(buffered bool) error
			limit uint64
			// width is the result's bytes a vertex; zero means no Out field.
			width int
		}{
			{"BFS", func(buffered bool) error {
				_, err := algorithms.BFS(a, 3, algorithms.BFSOptions{Workspace: ws, Out: when(buffered, out32)})
				return err
			}, uint64(4*n + slack), 4},
			{"PageRank", func(buffered bool) error {
				_, err := algorithms.PageRank(a, algorithms.PageRankOptions{Workspace: ws, Out: when(buffered, outF64)})
				return err
			}, limit, 8},
			{"ConnectedComponentsRun", func(buffered bool) error {
				_, err := algorithms.ConnectedComponentsRun(a, algorithms.CCOptions{Workspace: ws, Out: when(buffered, outU32)})
				return err
			}, limit, 4},
			{"ParentBFSRun", func(buffered bool) error {
				_, err := algorithms.ParentBFSRun(a, 3, algorithms.ParentBFSOptions{Workspace: ws, Out: when(buffered, out64)})
				return err
			}, limit, 8},
			{"SSSP", func(buffered bool) error {
				_, err := algorithms.SSSP(wa, 3, algorithms.SSSPOptions{Workspace: ws, Out: when(buffered, outF64)})
				return err
			}, limit, 8},
			{"BetweennessCentrality", func(bool) error {
				_, err := algorithms.BetweennessCentrality(a, []int{3}, algorithms.BCOptions{})
				return err
			}, limit, 0},
			{"MIS", func(bool) error {
				_, err := algorithms.MIS(a, 42)
				return err
			}, limit, 0},
		} {
			// The least of three calls after a warming one: TotalAlloc is
			// process-wide, and a buffer that grows on one call (a par worker
			// that had not run this loop body yet) is warm-up, not per-query
			// cost.
			measure := func(buffered bool) uint64 {
				got := ^uint64(0)
				for rep := 0; rep < 4; rep++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err := q.run(buffered)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatalf("kron:%d %s: %v", scale, q.name, err)
					}
					if rep > 0 {
						got = min(got, after.TotalAlloc-before.TotalAlloc)
					}
				}
				return got
			}
			got := measure(false)
			t.Logf("kron:%d %-22s %8d B/query (%.1f B/vertex; nnz=%d)", scale, q.name, got, float64(got)/float64(n), a.NVals())
			if got > q.limit {
				t.Errorf("kron:%d %s allocated %d B in one call, limit %d B", scale, q.name, got, q.limit)
			}
			if q.width == 0 {
				continue
			}
			buffered := measure(true)
			t.Logf("kron:%d %-22s %8d B/query with Out supplied", scale, q.name, buffered)
			if buffered+uint64(q.width*n) > got+1<<10 {
				t.Errorf("kron:%d %s with Out allocated %d B, want %d B (its result array) below the %d B without", scale, q.name, buffered, q.width*n, got)
			}
			if q.name == "BFS" && buffered > slack {
				t.Errorf("kron:%d BFS with Out allocated %d B, want ≤ %d B whatever n is", scale, buffered, slack)
			}
		}
	}
}
