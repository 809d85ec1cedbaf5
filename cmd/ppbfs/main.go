// Command ppbfs runs one BFS on a graph — from a MatrixMarket file or a
// generated stand-in — with any framework, printing per-iteration traces
// and the MTEPS summary. It is the quickest way to watch the direction
// optimizer switch push↔pull.
//
// Usage:
//
//	ppbfs -dataset kron -scale 16 -source 0 -trace
//	ppbfs -file graph.mtx -framework ligra -sources 10
//	ppbfs -dataset roadnet -framework all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/frameworks"
	"pushpull/internal/harness"
	"pushpull/internal/perf"
)

func main() {
	var (
		file      = flag.String("file", "", "MatrixMarket graph file")
		dataset   = flag.String("dataset", "kron", "generated dataset name (ignored with -file)")
		scale     = flag.Int("scale", 14, "generated dataset scale")
		source    = flag.Int("source", 0, "BFS root (-1 = highest-degree vertex)")
		sources   = flag.Int("sources", 1, "number of random roots (overrides -source when > 1)")
		framework = flag.String("framework", "thiswork", "thiswork|suitesparse|cusha|baseline|ligra|gunrock|all")
		trace     = flag.Bool("trace", false, "print per-iteration direction/frontier trace (thiswork only)")
	)
	flag.Parse()
	if err := run(*file, *dataset, *scale, *source, *sources, *framework, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "ppbfs: %v\n", err)
		os.Exit(1)
	}
}

func run(file, dataset string, scale, source, nsources int, framework string, trace bool) error {
	// Graph loading goes through the shared harness seam (the same path
	// ppserve resolves its -graph specs with).
	g, err := harness.LoadGraph(file, dataset, scale)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges, max degree %d\n", g.NRows(), g.NVals(), g.MaxDegree())

	roots, err := pickRoots(g, source, nsources)
	if err != nil {
		return err
	}

	runners := map[string]func(src int) (int64, time.Duration, error){
		"thiswork": func(src int) (int64, time.Duration, error) {
			opt := algorithms.BFSOptions{}
			if trace {
				opt.Trace = func(s algorithms.IterStats) {
					fmt.Printf("  iter %2d  %-4s  frontier %8d  unvisited %8d  %8.3f ms\n",
						s.Iteration, s.Direction, s.FrontierNNZ, s.UnvisitedNNZ,
						float64(s.Duration.Nanoseconds())/1e6)
				}
			}
			var res algorithms.BFSResult
			var err error
			d := perf.Time(func() { res, err = algorithms.BFS(g, src, opt) })
			if err != nil {
				return 0, 0, err
			}
			fmt.Printf("  visited %d vertices in %d iterations\n", res.Visited, res.Iterations)
			return res.EdgesTraversed, d, nil
		},
	}
	fg := frameworks.FromMatrix(g)
	for _, r := range frameworks.All() {
		runner := r
		key := map[string]string{
			"SuiteSparse": "suitesparse", "CuSha": "cusha", "Baseline": "baseline",
			"Ligra": "ligra", "Gunrock": "gunrock",
		}[runner.Name]
		runners[key] = func(src int) (int64, time.Duration, error) {
			var depths []int32
			d := perf.Time(func() { depths = runner.BFS(fg, src) })
			var edges int64
			for v, dep := range depths {
				if dep >= 0 {
					edges += int64(fg.Out.RowLen(v))
				}
			}
			return edges, d, nil
		}
	}

	names := []string{framework}
	if framework == "all" {
		names = []string{"suitesparse", "cusha", "baseline", "ligra", "gunrock", "thiswork"}
	}
	for _, name := range names {
		fn, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown framework %q", name)
		}
		var totalEdges int64
		var totalDur time.Duration
		for _, src := range roots {
			fmt.Printf("%s: source %d\n", name, src)
			edges, d, err := fn(src)
			if err != nil {
				return err
			}
			totalEdges += edges
			totalDur += d
		}
		mean := totalDur / time.Duration(len(roots))
		fmt.Printf("%s: mean %.3f ms, %.1f MTEPS over %d root(s)\n",
			name, float64(mean.Nanoseconds())/1e6,
			perf.MTEPS(totalEdges/int64(len(roots)), mean), len(roots))
	}
	return nil
}

// pickRoots resolves the -source/-sources flags against the loaded graph:
// nsources > 1 samples that many vertices with an out-edge, source == -1
// means the highest-degree vertex, anything else must name a vertex. The
// comparator frameworks index by the root unchecked, so it is validated here
// once for every runner.
func pickRoots(g *graphblas.Matrix[bool], source, nsources int) ([]int, error) {
	n := g.NRows()
	csr := g.CSR()
	if nsources > 1 {
		var roots []int
		for v := 0; v < n && len(roots) < nsources; v += 1 + n/(nsources*2+1) {
			if csr.RowLen(v) > 0 {
				roots = append(roots, v)
			}
		}
		if len(roots) == 0 {
			return nil, fmt.Errorf("-sources %d: the graph has no vertex with an out-edge to start from", nsources)
		}
		return roots, nil
	}
	if source == -1 && n > 0 {
		best := 0
		for v := 1; v < n; v++ {
			if csr.RowLen(v) > csr.RowLen(best) {
				best = v
			}
		}
		return []int{best}, nil
	}
	if source < 0 || source >= n {
		return nil, fmt.Errorf("-source %d out of range [0,%d) (-1 = highest-degree vertex)", source, n)
	}
	return []int{source}, nil
}
