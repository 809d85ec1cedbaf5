package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pushpull/graphblas"
)

// Directed-graph coverage: asymmetric adjacency matrices exercise the
// separate CSR/CSC paths (Matrix.Symmetric() == false), which undirected
// tests never touch.

func randDirected(rng *rand.Rand, n int, p float64) *graphblas.Matrix[bool] {
	var r, c []uint32
	var v []bool
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				r = append(r, uint32(i))
				c = append(c, uint32(j))
				v = append(v, true)
			}
		}
	}
	m, err := graphblas.NewMatrixFromCOO(n, n, r, c, v, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func TestBFSDirectedFollowsOutEdges(t *testing.T) {
	// 0→1→2, 2→0 (cycle), 3→0 (3 unreachable from 0).
	g, err := graphblas.NewMatrixFromCOO(4, 4,
		[]uint32{0, 1, 2, 3}, []uint32{1, 2, 0, 0},
		[]bool{true, true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Symmetric() {
		t.Fatal("directed test graph must be asymmetric")
	}
	res, err := BFS(g, 0, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, -1}
	for i := range want {
		if res.Depths[i] != want[i] {
			t.Fatalf("depth[%d]=%d want %d", i, res.Depths[i], want[i])
		}
	}
}

func TestBFSDirectedMatchesReferenceAllOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(60)
		g := randDirected(rng, n, 0.08)
		src := rng.Intn(n)
		want := refBFS(g, src)
		for oname, opt := range optionMatrix() {
			res, err := BFS(g, src, opt)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, oname, err)
			}
			for v := range want {
				if res.Depths[v] != want[v] {
					t.Fatalf("trial %d %s: depth[%d]=%d want %d", trial, oname, v, res.Depths[v], want[v])
				}
			}
		}
	}
}

func TestParentBFSDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(40)
		g := randDirected(rng, n, 0.1)
		src := rng.Intn(n)
		parents, err := ParentBFS(g, src)
		if err != nil {
			t.Fatal(err)
		}
		checkParents(t, fmt.Sprintf("trial %d", trial), g, src, parents, refBFS(g, src))
	}
}

func TestSSSPDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(40)
		gb := randDirected(rng, n, 0.12)
		// Deterministic positive weights per directed edge.
		var r, c []uint32
		var v []float64
		csr := gb.CSR()
		for i := 0; i < n; i++ {
			ind, _ := csr.RowSpan(i)
			for _, j := range ind {
				r = append(r, uint32(i))
				c = append(c, j)
				v = append(v, 1+float64((i*7+int(j)*13)%10))
			}
		}
		g, err := graphblas.NewMatrixFromCOO(n, n, r, c, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.Intn(n)
		want := refDijkstra(g, src)
		got, err := SSSP(g, src, SSSPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) {
				t.Fatalf("trial %d: reachability of %d differs", trial, i)
			}
			if !math.IsInf(want[i], 1) && math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("trial %d: dist[%d]=%g want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBetweennessCentralityDirectedSmoke(t *testing.T) {
	// Directed path 0→1→2→3: vertex 1 lies on paths 0→2, 0→3 (2 paths);
	// vertex 2 on 0→3, 1→3 (2 paths). Brandes BC counts per ordered pair.
	g, err := graphblas.NewMatrixFromCOO(4, 4,
		[]uint32{0, 1, 2}, []uint32{1, 2, 3}, []bool{true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := BetweennessCentrality(g, []int{0, 1, 2, 3}, BCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bc[0] != 0 || bc[3] != 0 {
		t.Fatalf("endpoints should be 0: %v", bc)
	}
	if bc[1] != 2 || bc[2] != 2 {
		t.Fatalf("middle vertices should be 2: %v", bc)
	}
}
