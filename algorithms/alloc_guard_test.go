package algorithms_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

// TestPerQueryAllocationIsLinearInVertices is the guard that keeps per-query
// matrix copies from coming back: one call of each algorithm the server
// offers over a pattern view may allocate O(n) result and working vectors,
// never O(nnz). Before the second-form semirings a kron:14 call allocated
// 11.8 MB (PageRank), 2.2 MB (CC) and 2.1 MB (ParentBFS) against n = 16384;
// the bound below is 1.6 MB there and does not move with the edge count.
// BFS has its own, tighter limit: its frontier and visited set are the
// workspace's, so a warmed call allocates the depth vector it returns
// (4 bytes a vertex) and a few fixed-size records — it was 11 bytes a vertex
// while BFS still built an unvisited list and its own two vectors per call.
func TestPerQueryAllocationIsLinearInVertices(t *testing.T) {
	if algorithms.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts, so pooled workspaces re-allocate")
	}
	// No GC during the measurement: a cycle would empty the workspace pools
	// BC and MIS draw from and charge the refill to the call.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, scale := range []int{12, 14} {
		a, err := generate.RMAT(generate.RMATConfig{Scale: scale, EdgeFactor: 16, Undirected: true, Seed: 105})
		if err != nil {
			t.Fatal(err)
		}
		n := a.NRows()
		ws := graphblas.NewWorkspace(n, n)
		limit, bfsLimit := uint64(96*n+16<<10), uint64(4*n+4<<10)
		for _, q := range []struct {
			name  string
			run   func() error
			limit uint64
		}{
			{"BFS", func() error {
				_, err := algorithms.BFS(a, 3, algorithms.BFSOptions{Workspace: ws})
				return err
			}, bfsLimit},
			{"PageRank", func() error {
				_, err := algorithms.PageRank(a, algorithms.PageRankOptions{Workspace: ws})
				return err
			}, limit},
			{"ConnectedComponentsRun", func() error {
				_, err := algorithms.ConnectedComponentsRun(a, algorithms.CCOptions{Workspace: ws})
				return err
			}, limit},
			{"ParentBFSRun", func() error {
				_, err := algorithms.ParentBFSRun(a, 3, algorithms.ParentBFSOptions{Workspace: ws})
				return err
			}, limit},
			{"BetweennessCentrality", func() error {
				_, err := algorithms.BetweennessCentrality(a, []int{3})
				return err
			}, limit},
			{"MIS", func() error {
				_, err := algorithms.MIS(a, 42)
				return err
			}, limit},
		} {
			if err := q.run(); err != nil { // warm the workspace
				t.Fatalf("kron:%d %s: %v", scale, q.name, err)
			}
			// The least of three calls: TotalAlloc is process-wide, and a
			// buffer that grows on one call (a par worker that had not run
			// this loop body yet) is warm-up, not per-query cost.
			got := ^uint64(0)
			for rep := 0; rep < 3; rep++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := q.run()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("kron:%d %s: %v", scale, q.name, err)
				}
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("kron:%d %-22s %8d B/query (%.1f B/vertex; nnz=%d)", scale, q.name, got, float64(got)/float64(n), a.NVals())
			if got > q.limit {
				t.Errorf("kron:%d %s allocated %d B in one call, limit %d B", scale, q.name, got, q.limit)
			}
		}
	}
}
