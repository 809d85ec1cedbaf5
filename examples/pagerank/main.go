// Adaptive PageRank: masking beyond BFS. Once a vertex's rank converges,
// the masked matvec skips its row entirely — the paper's Section 5.6
// "masking generalizes to any algorithm where output sparsity is known
// a priori" claim, measured.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
)

func main() {
	scale := flag.Int("scale", 14, "log2 of the vertex count")
	flag.Parse()

	g, err := generate.RMAT(generate.RMATConfig{
		Scale: *scale, EdgeFactor: 16, Undirected: true, Seed: 77,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web graph: %d pages, %d links\n\n", g.NRows(), g.NVals())

	opt := algorithms.PageRankOptions{Tol: 1e-9, MaxIter: 200}

	start := time.Now()
	exact, err := algorithms.PageRank(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	exactTime := time.Since(start)

	// A positive AdaptiveTol selects the masked variant.
	opt.AdaptiveTol = 1e-10
	start = time.Now()
	adaptive, err := algorithms.PageRank(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	adaptiveTime := time.Since(start)

	fmt.Printf("standard PageRank:  %d iterations, %12d row-computations, %v\n",
		exact.Iterations, exact.MaskedMatvecRows, exactTime.Round(time.Microsecond))
	fmt.Printf("adaptive (masked):  %d iterations, %12d row-computations, %v\n",
		adaptive.Iterations, adaptive.MaskedMatvecRows, adaptiveTime.Round(time.Microsecond))
	fmt.Printf("masking skipped %.1f%% of the row work\n\n",
		100*(1-float64(adaptive.MaskedMatvecRows)/float64(exact.MaskedMatvecRows)))

	// The two variants must agree on the ranking.
	maxDiff := 0.0
	for i := range exact.Ranks {
		d := exact.Ranks[i] - adaptive.Ranks[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |exact - adaptive| rank difference: %.2e\n\n", maxDiff)

	type ranked struct {
		page int
		rank float64
	}
	top := make([]ranked, len(exact.Ranks))
	for i, r := range exact.Ranks {
		top[i] = ranked{i, r}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("top 5 pages:")
	for _, t := range top[:5] {
		fmt.Printf("  page %6d  rank %.6f  degree %d\n", t.page, t.rank, rowDeg(g, t.page))
	}
}

func rowDeg(g interface{ RowView(int) ([]uint32, []bool) }, i int) int {
	ind, _ := g.RowView(i)
	return len(ind)
}
