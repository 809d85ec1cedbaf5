package algorithms

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// optionMatrix enumerates meaningful optimization combinations: the full
// stack (planned directions), the two forced directions, the Table 2
// cumulative stack, and each optimization disabled alone.
func optionMatrix() map[string]BFSOptions {
	return map[string]BFSOptions{
		"all-on":            {},
		"all-off":           AllOff(),
		"push-only":         {DisableDirectionOpt: true},
		"pull-only":         {ForcePull: true},
		"no-masking":        {DisableMasking: true},
		"no-early-exit":     {DisableEarlyExit: true},
		"no-operand-reuse":  {DisableOperandReuse: true},
		"no-structure-only": {DisableStructureOnly: true},
	}
}

func checkDepths(t *testing.T, ctx string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d depths, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: depth[%d]=%d want %d", ctx, i, got[i], want[i])
		}
	}
}

// checkParents verifies a ParentBFS answer against reference depths: the
// source is its own parent, an unreached vertex has none, and every other
// vertex's parent is its smallest in-neighbour one level up — ParentBFS's min
// rule, whatever mix of push and pull found it.
func checkParents(t *testing.T, ctx string, g *graphblas.Matrix[bool], src int, parents []int64, depths []int32) {
	t.Helper()
	if len(parents) != len(depths) {
		t.Fatalf("%s: %d parents, want %d", ctx, len(parents), len(depths))
	}
	for v, p := range parents {
		want := int64(-1)
		switch {
		case v == src:
			want = int64(src)
		case depths[v] > 0:
			in, _ := g.CSC().RowSpan(v) // sorted: the first match is the smallest
			for _, u := range in {
				if depths[u] == depths[v]-1 {
					want = int64(u)
					break
				}
			}
		}
		if p != want {
			t.Fatalf("%s: parent of vertex %d (depth %d) is %d, want %d", ctx, v, depths[v], p, want)
		}
	}
}

func TestBFSVisitedAndEdgesTraversed(t *testing.T) {
	g := undirectedFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}})
	res, err := BFS(g, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 4 {
		t.Fatalf("Visited=%d want 4", res.Visited)
	}
	// Component {0,1,2,3} has degrees 1,2,2,1 → 6 directed edges.
	if res.EdgesTraversed != 6 {
		t.Fatalf("EdgesTraversed=%d want 6", res.EdgesTraversed)
	}
	if res.Iterations < 3 {
		t.Fatalf("Iterations=%d want >=3", res.Iterations)
	}
	if res.MTEPS(0) != 0 {
		t.Fatal("MTEPS of zero duration should be 0")
	}
}

func TestBFSDirectionSwitching(t *testing.T) {
	// Star-plus-clique: iteration 1 pushes (tiny frontier), iteration 2
	// sees the exploded frontier against a nearly exhausted ¬visited mask
	// and pulls, and the shrunken tail returns to push — the three phases
	// of Section 5.1.
	g := starPlusClique(400, 20)
	var dirs []core.Direction
	opt := BFSOptions{
		Trace: func(s IterStats) {
			dirs = append(dirs, s.Direction)
		},
	}
	res, err := BFS(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != g.NRows() {
		t.Fatalf("Visited=%d want %d", res.Visited, g.NRows())
	}
	if len(dirs) < 2 {
		t.Fatalf("expected >=2 iterations, got %v", dirs)
	}
	if dirs[0] != core.Push {
		t.Fatalf("iteration 1 should push: %v", dirs)
	}
	sawPull := false
	for _, d := range dirs {
		if d == core.Pull {
			sawPull = true
		}
	}
	if !sawPull {
		t.Fatalf("star explosion should trigger pull: %v", dirs)
	}
	// Push-only never pulls.
	dirs = dirs[:0]
	_, err = BFS(g, 0, BFSOptions{DisableDirectionOpt: true, Trace: func(s IterStats) { dirs = append(dirs, s.Direction) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d != core.Push {
			t.Fatalf("push-only BFS pulled: %v", dirs)
		}
	}
}

func TestBFSErrors(t *testing.T) {
	g := pathGraph(5)
	if _, err := BFS(g, -1, BFSOptions{}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := BFS(g, 5, BFSOptions{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	rect, err := graphblas.NewMatrixFromCOO(2, 3, []uint32{0}, []uint32{2}, []bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFS(rect, 0, BFSOptions{}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

func TestBFSSingleVertexAndIsolatedSource(t *testing.T) {
	g := undirectedFromEdges(3, [][2]int{{1, 2}})
	res, err := BFS(g, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || res.Depths[0] != 0 || res.Depths[1] != -1 {
		t.Fatalf("isolated source: %+v", res)
	}
}

func TestBFSPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := randUndirected(rng, n, 0.05+rng.Float64()*0.15)
		src := rng.Intn(n)
		want := refBFS(g, src)
		res, err := BFS(g, src, BFSOptions{})
		if err != nil {
			return false
		}
		for i := range want {
			if res.Depths[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestParentBFSValidTree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(50)
		g := randUndirected(rng, n, 0.1)
		src := rng.Intn(n)
		parents, err := ParentBFS(g, src)
		if err != nil {
			t.Fatal(err)
		}
		checkParents(t, fmt.Sprintf("trial %d", trial), g, src, parents, refBFS(g, src))
	}
}
