package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

func TestSSSPMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(50)
		g := randUndirected(rng, n, 0.1)
		w := weightedFromBool(rng, g)
		src := rng.Intn(n)
		want := refDijkstra(w, src)
		for _, opt := range []SSSPOptions{{}, {PushOnly: true}, {SwitchPoint: 0.2}} {
			got, err := SSSP(w, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) {
					t.Fatalf("trial %d: reachability of %d differs", trial, i)
				}
				if !math.IsInf(want[i], 1) && math.Abs(want[i]-got[i]) > 1e-9 {
					t.Fatalf("trial %d opt %+v: dist[%d]=%g want %g", trial, opt, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSSSPTwoPhaseDirection(t *testing.T) {
	// On a graph with an exploding workfront SSSP should switch to pull
	// and stay there (2-phase, Section 5.6).
	g := starPlusClique(300, 15)
	w := weightedFromBool(rand.New(rand.NewSource(71)), g)
	var dirs []core.Direction
	_, err := SSSP(w, 0, SSSPOptions{SwitchPoint: 0.05, Trace: func(s IterStats) { dirs = append(dirs, s.Direction) }})
	if err != nil {
		t.Fatal(err)
	}
	sawPull := false
	for _, d := range dirs {
		if d == core.Pull {
			sawPull = true
		} else if sawPull {
			t.Fatalf("SSSP returned to push after pulling: %v", dirs)
		}
	}
	if !sawPull {
		t.Fatalf("SSSP never pulled: %v", dirs)
	}
}

func TestSSSPErrors(t *testing.T) {
	g := weightedFromBool(rand.New(rand.NewSource(72)), pathGraph(4))
	if _, err := SSSP(g, 9, SSSPOptions{}); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	// On a cycle (2-regular), PageRank is uniform.
	n := 20
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	g := undirectedFromEdges(n, edges)
	res, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Ranks {
		if math.Abs(r-1/float64(n)) > 1e-6 {
			t.Fatalf("rank[%d]=%g want %g", i, r, 1/float64(n))
		}
	}
}

func TestPageRankSumsToOneAndRanksHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := starPlusClique(30, 5)
	res, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range res.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g", sum)
	}
	// The hub (vertex 0) must outrank every leaf.
	for i := 1; i <= 30; i++ {
		if res.Ranks[i] >= res.Ranks[0] {
			t.Fatalf("leaf %d outranks hub: %g >= %g", i, res.Ranks[i], res.Ranks[0])
		}
	}
	_ = rng
}

func TestPageRankAdaptiveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(60)
		g := randUndirected(rng, n, 0.1)
		exact, err := PageRank(g, PageRankOptions{Tol: 1e-10, MaxIter: 200})
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := PageRank(g, PageRankOptions{Tol: 1e-10, MaxIter: 200, AdaptiveTol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact.Ranks {
			if math.Abs(exact.Ranks[i]-adaptive.Ranks[i]) > 1e-4 {
				t.Fatalf("trial %d: adaptive rank[%d]=%g exact %g", trial, i, adaptive.Ranks[i], exact.Ranks[i])
			}
		}
		if adaptive.MaskedMatvecRows > exact.MaskedMatvecRows {
			t.Fatalf("trial %d: adaptive did more row work (%d) than exact (%d)",
				trial, adaptive.MaskedMatvecRows, exact.MaskedMatvecRows)
		}
		// Only a positive AdaptiveTol masks the matvec: options that leave it
		// zero, the zero value included, compute every row every iteration.
		zero, err := PageRank(g, PageRankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []PageRankResult{exact, zero} {
			if r.MaskedMatvecRows != int64(n*r.Iterations) {
				t.Fatalf("trial %d: unmasked run computed %d rows in %d iterations of %d", trial, r.MaskedMatvecRows, r.Iterations, n)
			}
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// Directed graph with a sink: 0→1, 1→2, 2 is dangling. Ranks must
	// still sum to 1.
	r := []uint32{0, 1}
	c := []uint32{1, 2}
	v := []bool{true, true}
	g, err := graphblas.NewMatrixFromCOO(3, 3, r, c, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range res.Ranks {
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("dangling ranks sum to %g", sum)
	}
	if !(res.Ranks[2] > res.Ranks[1] && res.Ranks[1] > res.Ranks[0]) {
		t.Fatalf("chain ranks not increasing: %v", res.Ranks)
	}
}

func TestMISIsIndependentAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(60)
		g := randUndirected(rng, n, 0.1)
		inSet, err := MIS(g, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		// Independence: no two set members adjacent.
		for i := 0; i < n; i++ {
			if !inSet[i] {
				continue
			}
			ind, _ := g.RowView(i)
			for _, j := range ind {
				if inSet[j] {
					t.Fatalf("trial %d: adjacent members %d,%d", trial, i, j)
				}
			}
		}
		// Maximality: every non-member has a member neighbour.
		for i := 0; i < n; i++ {
			if inSet[i] {
				continue
			}
			ind, _ := g.RowView(i)
			ok := false
			for _, j := range ind {
				if inSet[j] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: vertex %d could join the set", trial, i)
			}
		}
	}
}

func TestMISDeterministicForSeed(t *testing.T) {
	g := randUndirected(rand.New(rand.NewSource(76)), 40, 0.15)
	a, _ := MIS(g, 7)
	b, _ := MIS(g, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MIS not reproducible for fixed seed")
		}
	}
}

func TestBetweennessCentralityMatchesBrandes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(30)
		g := randUndirected(rng, n, 0.15)
		var sources []int
		for s := 0; s < n; s++ {
			sources = append(sources, s)
		}
		got, err := BetweennessCentrality(g, sources, BCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := refBC(g, sources)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: bc[%d]=%g want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBetweennessCentralityPathCenter(t *testing.T) {
	// On a path, the middle vertex lies on the most shortest paths.
	n := 9
	g := pathGraph(n)
	var sources []int
	for s := 0; s < n; s++ {
		sources = append(sources, s)
	}
	bc, err := BetweennessCentrality(g, sources, BCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mid := n / 2
	for i := 0; i < n; i++ {
		if i != mid && bc[i] > bc[mid] {
			t.Fatalf("bc[%d]=%g exceeds centre bc[%d]=%g", i, bc[i], mid, bc[mid])
		}
	}
	if bc[0] != 0 || bc[n-1] != 0 {
		t.Fatal("path endpoints must have zero BC")
	}
}

func TestBCErrors(t *testing.T) {
	g := pathGraph(4)
	if _, err := BetweennessCentrality(g, []int{9}, BCOptions{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := MIS(g, 0); err != nil {
		t.Fatal(err)
	}
	rect, err := graphblas.NewMatrixFromCOO(2, 3, []uint32{0}, []uint32{1}, []bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BetweennessCentrality(rect, []int{0}, BCOptions{}); err == nil {
		t.Fatal("rectangular BC accepted")
	}
	if _, err := MIS(rect, 0); err == nil {
		t.Fatal("rectangular MIS accepted")
	}
	if _, err := ParentBFS(rect, 0); err == nil {
		t.Fatal("rectangular ParentBFS accepted")
	}
	if _, err := ParentBFS(g, -2); err == nil {
		t.Fatal("bad ParentBFS source accepted")
	}
	rectF, err := graphblas.NewMatrixFromCOO(2, 3, []uint32{0}, []uint32{1}, []float64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SSSP(rectF, 0, SSSPOptions{}); err == nil {
		t.Fatal("rectangular SSSP accepted")
	}
	if _, err := PageRank(rect, PageRankOptions{}); err == nil {
		t.Fatal("rectangular PageRank accepted")
	}
}
