package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pushpull/graphblas"
)

func TestMultiBFSMatchesSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	graphs := []*graphblas.Matrix[bool]{
		randUndirected(rng, 90, 0.06),
		randDirected(rng, 70, 0.08),
		pathGraph(60),
		starPlusClique(50, 8),
	}
	for gi, g := range graphs {
		n := g.NRows()
		var sources []int
		for s := 0; s < n && len(sources) < 7; s += 1 + n/8 {
			sources = append(sources, s)
		}
		got, err := MultiBFS(g, sources)
		if err != nil {
			t.Fatal(err)
		}
		for si, src := range sources {
			want := refBFS(g, src)
			for v := range want {
				if got[si][v] != want[v] {
					t.Fatalf("graph %d source %d: depth[%d]=%d want %d", gi, src, v, got[si][v], want[v])
				}
			}
		}
	}
}

func TestMultiBFSErrors(t *testing.T) {
	g := pathGraph(10)
	if out, err := MultiBFS(g, nil); err != nil || out != nil {
		t.Fatal("empty source list should return nil, nil")
	}
	if _, err := MultiBFS(g, make([]int, 65)); err == nil {
		t.Fatal(">64 sources accepted")
	}
	if _, err := MultiBFS(g, []int{99}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	rect, err := graphblas.NewMatrixFromCOO(2, 3, []uint32{0}, []uint32{1}, []bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MultiBFS(rect, []int{0}); err == nil {
		t.Fatal("rectangular accepted")
	}
}

func TestMultiBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		g := randUndirected(rng, n, 0.03+rng.Float64()*0.1)
		k := 1 + rng.Intn(10)
		sources := make([]int, k)
		for i := range sources {
			sources[i] = rng.Intn(n)
		}
		got, err := MultiBFS(g, sources)
		if err != nil {
			return false
		}
		for si, src := range sources {
			want := refBFS(g, src)
			for v := range want {
				if got[si][v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
