// Quickstart: build a small graph, run one masked matvec by hand, then a
// full direction-optimized BFS — the 60-second tour of the API.
package main

import (
	"fmt"
	"log"

	"pushpull/algorithms"
	"pushpull/graphblas"
)

func main() {
	// The paper's Figure 3 example graph: 8 vertices A..H.
	//    A-B, A-C, B-D, C-D, C-E, D-F, E-F, E-G, F-H, G-H
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	edges := [][2]uint32{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4},
		{3, 5}, {4, 5}, {4, 6}, {5, 7}, {6, 7},
	}
	var rows, cols []uint32
	var vals []bool
	for _, e := range edges {
		rows = append(rows, e[0], e[1])
		cols = append(cols, e[1], e[0])
		vals = append(vals, true, true)
	}
	a, err := graphblas.NewMatrixFromCOO(8, 8, rows, cols, vals, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjacency matrix: %d×%d, %d stored edges, symmetric=%v\n\n",
		a.NRows(), a.NCols(), a.NVals(), a.Symmetric())

	// One BFS step by hand: f' = Aᵀf .* ¬v over the Boolean semiring —
	// the single formula that is both push and pull (paper Section 4).
	f := graphblas.NewVector[bool](8)
	_ = f.SetElement(0, true) // frontier = {A}
	v := graphblas.NewVector[bool](8)
	_ = v.SetElement(0, true) // visited = {A}
	desc := &graphblas.Descriptor{Transpose: true, StructuralComplement: true}
	dir, err := graphblas.Into(f).Mask(v).With(desc).MxV(graphblas.OrAndBool(), a, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one masked matvec from {A} ran as %s and discovered:", dir)
	f.Iterate(func(i int, _ bool) bool {
		fmt.Printf(" %s", names[i])
		return true
	})
	fmt.Println()

	// The full Algorithm 1 with all five optimizations.
	res, err := algorithms.BFS(a, 0, algorithms.BFSOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBFS levels from A:")
	for i, d := range res.Depths {
		fmt.Printf("  %s: level %d\n", names[i], d)
	}
	fmt.Printf("visited %d vertices in %d iterations, %d edges traversed\n",
		res.Visited, res.Iterations, res.EdgesTraversed)
}
