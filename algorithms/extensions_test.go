package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pushpull/graphblas"
)

// refComponents labels components with union-find.
func refComponents(a *graphblas.Matrix[bool]) []uint32 {
	n := a.NRows()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	csr := a.CSR()
	for i := 0; i < n; i++ {
		ind, _ := csr.RowSpan(i)
		for _, j := range ind {
			union(i, int(j))
		}
	}
	// Canonical label: smallest member id.
	smallest := make([]uint32, n)
	for i := range smallest {
		smallest[i] = ^uint32(0)
	}
	for i := 0; i < n; i++ {
		r := find(i)
		if uint32(i) < smallest[r] {
			smallest[r] = uint32(i)
		}
	}
	labels := make([]uint32, n)
	for i := 0; i < n; i++ {
		labels[i] = smallest[find(i)]
	}
	return labels
}

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(80)
		g := randUndirected(rng, n, 0.03+rng.Float64()*0.05)
		got, err := ConnectedComponents(g)
		if err != nil {
			t.Fatal(err)
		}
		want := refComponents(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: label[%d]=%d want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	// 0→1, 2→1: weakly one component {0,1,2}; 3 isolated.
	g, err := graphblas.NewMatrixFromCOO(4, 4,
		[]uint32{0, 2}, []uint32{1, 1}, []bool{true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ConnectedComponents(g)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Fatalf("weak component broken: %v", labels)
	}
	if labels[3] != 3 {
		t.Fatalf("isolated vertex mislabelled: %v", labels)
	}
	rect, err := graphblas.NewMatrixFromCOO(2, 3, []uint32{0}, []uint32{1}, []bool{true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConnectedComponents(rect); err == nil {
		t.Fatal("rectangular CC accepted")
	}
}

func TestConnectedComponentsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		g := randUndirected(rng, n, 0.08)
		got, err := ConnectedComponents(g)
		if err != nil {
			return false
		}
		want := refComponents(g)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
