package core

import (
	"math/rand"
	"testing"

	"pushpull/internal/sparse"
)

// fusedRef runs a plain queue BFS on the CSR for comparison.
func fusedRef(g *sparse.CSR[bool], source int) []int32 {
	depths := make([]int32, g.Rows)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ind, _ := g.RowSpan(u)
		for _, v := range ind {
			if depths[v] < 0 {
				depths[v] = depths[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return depths
}

func randSymCSR(rng *rand.Rand, n int, p float64) *sparse.CSR[bool] {
	var r, c []uint32
	var v []bool
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				r = append(r, uint32(i), uint32(j))
				c = append(c, uint32(j), uint32(i))
				v = append(v, true, true)
			}
		}
	}
	g, err := sparse.FromCOO(n, n, r, c, v, func(a, b bool) bool { return a })
	if err != nil {
		panic(err)
	}
	return g
}

func TestFusedStepsBuildCorrectBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(100)
		g := randSymCSR(rng, n, 0.06)
		src := rng.Intn(n)
		want := fusedRef(g, src)

		// Alternate push and pull levels to exercise both kernels.
		depths := make([]int32, n)
		for i := range depths {
			depths[i] = -1
		}
		depths[src] = 0
		visited := make([]uint64, BitsetWords(n))
		BitsetSet(visited, src)
		unvisited := make([]uint32, 0, n-1)
		for v := 0; v < n; v++ {
			if v != src {
				unvisited = append(unvisited, uint32(v))
			}
		}
		frontier := []uint32{uint32(src)}
		for depth := int32(1); len(frontier) > 0; depth++ {
			if depth%2 == 1 {
				frontier = FusedPushStep(g, visited, frontier, depths, depth, nil)
				// Compact the unvisited list so the next pull is exact.
				w := 0
				for _, v := range unvisited {
					if !BitsetGet(visited, int(v)) {
						unvisited[w] = v
						w++
					}
				}
				unvisited = unvisited[:w]
			} else {
				frontier, unvisited = FusedPullStep(g, visited, unvisited, depths, depth, nil)
			}
		}
		for v := range want {
			if depths[v] != want[v] {
				t.Fatalf("trial %d: depth[%d]=%d want %d", trial, v, depths[v], want[v])
			}
		}
	}
}

func TestFusedPullStepSkipsStaleEntries(t *testing.T) {
	g := randSymCSR(rand.New(rand.NewSource(121)), 20, 0.3)
	visited := make([]uint64, BitsetWords(20))
	depths := make([]int32, 20)
	for i := range depths {
		depths[i] = -1
	}
	BitsetSet(visited, 0)
	depths[0] = 0
	BitsetSet(visited, 5)
	depths[5] = 1 // already visited but still on the stale list
	unvisited := []uint32{5}
	for v := 1; v < 20; v++ {
		if v != 5 {
			unvisited = append(unvisited, uint32(v))
		}
	}
	_, _ = FusedPullStep(g, visited, unvisited, depths, 2, nil)
	if depths[5] != 1 {
		t.Fatalf("stale entry overwritten: depth[5]=%d", depths[5])
	}
}

func TestSequentialColumnKernelsMatchParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	sr := SR[float64]{
		Add: func(a, b float64) float64 { return a + b },
		Id:  0,
		Mul: func(a, b float64) float64 { return a * b },
		One: 1,
	}
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(60)
		gb := randSymCSR(rng, n, 0.15)
		g := sparse.Fill(gb, 1.5)
		var uInd []uint32
		var uVal []float64
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				uInd = append(uInd, uint32(i))
				uVal = append(uVal, rng.Float64())
			}
		}
		for _, mk := range []MergeKind{MergeRadix, MergeHeap, MergeSPA} {
			pi, pv := ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{Merge: mk})
			si, sv := ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{Merge: mk, Sequential: true})
			if len(pi) != len(si) {
				t.Fatalf("trial %d merge %d: nnz %d vs %d", trial, mk, len(pi), len(si))
			}
			for k := range pi {
				if pi[k] != si[k] || pv[k] != sv[k] {
					t.Fatalf("trial %d merge %d: entry %d differs", trial, mk, k)
				}
			}
		}
		// Structure-only sequential path too.
		for _, mk := range []MergeKind{MergeRadix, MergeHeap, MergeSPA} {
			pi, _ := ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{Merge: mk, StructureOnly: true})
			si, _ := ColMxv(g, SparseVec(n, uInd, uVal), sr, Opts{Merge: mk, StructureOnly: true, Sequential: true})
			if len(pi) != len(si) {
				t.Fatalf("trial %d merge %d structure-only: nnz differs", trial, mk)
			}
			for k := range pi {
				if pi[k] != si[k] {
					t.Fatalf("trial %d merge %d structure-only: index %d differs", trial, mk, k)
				}
			}
		}
	}
}
