// Road-network routing: SSSP over the (min, +) semiring on a weighted
// grid. High-diameter meshes are where direction optimization does NOT
// pay (the paper's Section 7.3 finding) — the workfront stays tiny, so
// the traversal stays push-only; compare against a scale-free graph where
// the 2-phase switch kicks in.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

func main() {
	side := flag.Int("side", 200, "grid side length")
	flag.Parse()

	grid, err := generate.Grid2D(*side, *side)
	if err != nil {
		log.Fatal(err)
	}
	// Edge weights model segment travel times.
	roads, err := generate.WeightedCopy(grid, 1, 5, 7)
	if err != nil {
		log.Fatal(err)
	}
	n := roads.NRows()
	fmt.Printf("road network: %d intersections, %d segments (grid %dx%d)\n\n",
		n, roads.NVals(), *side, *side)

	pulls := 0
	start := time.Now()
	dist, err := algorithms.SSSP(roads, 0, algorithms.SSSPOptions{
		Trace: func(s algorithms.IterStats) {
			if s.Direction == graphblas.PullDirection {
				pulls++
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// On a mesh the diagonal wavefront never exceeds ~1/side of the
	// vertices, while SSSP's unmasked pull would scan every row, so the
	// planner keeps pushing — the paper's "DOBFS does not help road
	// networks".
	fmt.Printf("SSSP from the northwest corner: %v, %d pull rounds (wavefront peaks at %.2f%% of vertices)\n",
		time.Since(start).Round(time.Millisecond), pulls, 100/float64(*side))

	corner := n - 1
	fmt.Printf("shortest travel time to the southeast corner: %.1f\n", dist[corner])
	reached := 0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
		}
	}
	fmt.Printf("reached %d/%d intersections\n\n", reached, n)

	// Contrast: the same algorithm on a scale-free graph switches to pull
	// once the workfront explodes (the paper's 2-phase SSSP).
	social, err := generate.RMAT(generate.RMATConfig{Scale: 14, EdgeFactor: 16, Undirected: true, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	wsocial, err := generate.WeightedCopy(social, 1, 5, 8)
	if err != nil {
		log.Fatal(err)
	}
	pulls = 0
	rounds := 0
	if _, err := algorithms.SSSP(wsocial, 0, algorithms.SSSPOptions{
		Trace: func(s algorithms.IterStats) {
			rounds++
			if s.Direction == graphblas.PullDirection {
				pulls++
			}
		},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scale-free contrast: %d of %d SSSP rounds ran as pull (2-phase direction optimization)\n",
		pulls, rounds)
}
