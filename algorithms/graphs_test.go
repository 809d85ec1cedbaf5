package algorithms

import (
	"math/rand"

	"pushpull/graphblas"
)

// Test-graph builders shared by the algorithm tests.

// undirectedFromEdges builds a symmetric Boolean matrix from an edge list.
func undirectedFromEdges(n int, edges [][2]int) *graphblas.Matrix[bool] {
	var r, c []uint32
	var v []bool
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		r = append(r, uint32(e[0]), uint32(e[1]))
		c = append(c, uint32(e[1]), uint32(e[0]))
		v = append(v, true, true)
	}
	m, err := graphblas.NewMatrixFromCOO(n, n, r, c, v, func(a, b bool) bool { return a })
	if err != nil {
		panic(err)
	}
	return m
}

// randUndirected builds a G(n, p) undirected simple graph.
func randUndirected(rng *rand.Rand, n int, p float64) *graphblas.Matrix[bool] {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return undirectedFromEdges(n, edges)
}

// rmatUndirected builds an undirected R-MAT (Kronecker) graph of 2^scale
// vertices from edgeFactor·2^scale draws with Graph500's quadrant
// probabilities (0.57, 0.19, 0.19, 0.05): skewed degrees and isolated
// vertices, like generate.RMAT's, which this package's tests cannot import.
func rmatUndirected(rng *rand.Rand, scale, edgeFactor int) *graphblas.Matrix[bool] {
	n := 1 << scale
	edges := make([][2]int, n*edgeFactor)
	for k := range edges {
		u, v := 0, 0
		for bit := 1; bit < n; bit <<= 1 {
			switch p := rng.Float64(); {
			case p < 0.57:
			case p < 0.76:
				v |= bit
			case p < 0.95:
				u |= bit
			default:
				u, v = u|bit, v|bit
			}
		}
		edges[k] = [2]int{u, v}
	}
	return undirectedFromEdges(n, edges)
}

// weightedFromBool re-types a Boolean graph with random positive weights.
func weightedFromBool(rng *rand.Rand, a *graphblas.Matrix[bool]) *graphblas.Matrix[float64] {
	n := a.NRows()
	var r, c []uint32
	var v []float64
	for i := 0; i < n; i++ {
		ind, _ := a.RowView(i)
		for _, j := range ind {
			// Symmetric weights: derive deterministically from the edge.
			lo, hi := i, int(j)
			if lo > hi {
				lo, hi = hi, lo
			}
			w := 0.5 + float64((lo*31+hi*17)%100)/50
			r = append(r, uint32(i))
			c = append(c, j)
			v = append(v, w)
		}
	}
	_ = rng
	m, err := graphblas.NewMatrixFromCOO(n, n, r, c, v, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// pathGraph builds a path 0-1-2-...-n-1 (high diameter: forces many BFS
// iterations and the pull→push return).
func pathGraph(n int) *graphblas.Matrix[bool] {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return undirectedFromEdges(n, edges)
}

// starPlusClique: a hub with many leaves plus an attached clique — the
// frontier explodes at iteration 1 (push→pull) and collapses after
// (pull→push), exercising all three DOBFS phases.
func starPlusClique(leaves, clique int) *graphblas.Matrix[bool] {
	n := 1 + leaves + clique
	var edges [][2]int
	for i := 1; i <= leaves; i++ {
		edges = append(edges, [2]int{0, i})
	}
	base := 1 + leaves
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			edges = append(edges, [2]int{base + i, base + j})
		}
	}
	edges = append(edges, [2]int{0, base})
	return undirectedFromEdges(n, edges)
}
