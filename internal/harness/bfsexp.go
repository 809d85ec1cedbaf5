package harness

import (
	"math/rand"
	"time"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/perf"
)

// Table2Row is one line of the optimization-impact table: a configuration,
// its throughput, and the speedup over the previous (cumulative) step.
type Table2Row struct {
	Optimization string
	GTEPS        float64
	MeanMS       float64
	Speedup      float64
}

// Table2 reproduces the cumulative optimization stack of the paper's
// Table 2 on the kron stand-in: baseline → +structure-only → +change of
// direction → +masking → +early-exit → +operand-reuse, averaged over
// `sources` random BFS roots, `runs` timed repetitions each.
func Table2(scale, sources, runs int) ([]Table2Row, error) {
	g, err := KronDataset(scale).Build()
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		opt  algorithms.BFSOptions
	}{
		{"Baseline", algorithms.AllOff()},
		{"Structure only", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			return o
		}()},
		{"Change of direction", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			o.DisableDirectionOpt = false
			return o
		}()},
		{"Masking", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			o.DisableDirectionOpt = false
			o.DisableMasking = false
			return o
		}()},
		{"Early exit", func() algorithms.BFSOptions {
			o := algorithms.AllOff()
			o.DisableStructureOnly = false
			o.DisableDirectionOpt = false
			o.DisableMasking = false
			o.DisableEarlyExit = false
			return o
		}()},
		{"Operand reuse", algorithms.BFSOptions{}},
	}
	roots := pickSources(g, sources, 7)
	var rows []Table2Row
	prevMS := 0.0
	for _, step := range steps {
		var totalDur time.Duration
		var totalEdges int64
		for _, src := range roots {
			var res algorithms.BFSResult
			d := perf.TimeN(1, runs, func() {
				r, err := algorithms.BFS(g, src, step.opt)
				if err != nil {
					panic(err)
				}
				res = r
			})
			totalDur += d
			totalEdges += res.EdgesTraversed
		}
		meanDur := totalDur / time.Duration(len(roots))
		meanEdges := totalEdges / int64(len(roots))
		row := Table2Row{
			Optimization: step.name,
			GTEPS:        perf.GTEPS(meanEdges, meanDur),
			MeanMS:       ms(meanDur),
		}
		if prevMS > 0 {
			row.Speedup = prevMS / row.MeanMS
		}
		prevMS = row.MeanMS
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5Row is one BFS iteration of the Figure 5 experiment: the frontier
// and unvisited sizes, and the runtime of the masked pull and masked push
// kernels on that iteration's actual frontier.
type Fig5Row struct {
	Iteration    int
	FrontierNNZ  int
	UnvisitedNNZ int
	PushMS       float64
	PullMS       float64
}

// Fig5 reproduces Figure 5: per-iteration frontier/unvisited counts and
// the runtime of both masked kernels at each level of a kron BFS.
func Fig5(scale int) ([]Fig5Row, error) {
	g, err := KronDataset(scale).Build()
	if err != nil {
		return nil, err
	}
	n := g.NRows()
	src := pickSources(g, 1, 3)[0]
	res, err := algorithms.BFS(g, src, algorithms.BFSOptions{})
	if err != nil {
		return nil, err
	}
	maxDepth := int32(0)
	for _, d := range res.Depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	sr := graphblas.OrAndBool()
	var rows []Fig5Row
	visitedCount := 1
	for depth := int32(1); depth <= maxDepth; depth++ {
		// Reconstruct the level-(depth-1) frontier and the visited set
		// before this iteration.
		frontier := graphblas.NewVector[bool](n)
		visited := graphblas.NewVector[bool](n)
		visited.ToBitmap()
		for v, d := range res.Depths {
			if d == depth-1 {
				_ = frontier.SetElement(v, true)
			}
			if d >= 0 && d < depth {
				_ = visited.SetElement(v, true)
			}
		}
		fNNZ := frontier.NVals()
		row := Fig5Row{
			Iteration:    int(depth),
			FrontierNNZ:  fNNZ,
			UnvisitedNNZ: n - visitedCount,
		}
		visitedCount += countDepth(res.Depths, depth)

		// Push: masked column kernel on the sparse frontier.
		pushDesc := &graphblas.Descriptor{
			Transpose: true, StructuralComplement: true,
			Direction: graphblas.ForcePush, StructureOnly: true,
		}
		row.PushMS = ms(perf.TimeN(1, 3, func() {
			out := graphblas.NewVector[bool](n)
			fc := frontier.Dup()
			if _, err := graphblas.Into(out).Mask(visited).With(pushDesc).MxV(sr, g, fc); err != nil {
				panic(err)
			}
		}))
		// Pull: masked row kernel, operand reuse input.
		pullDesc := &graphblas.Descriptor{
			Transpose: true, StructuralComplement: true,
			Direction: graphblas.ForcePull, StructureOnly: true,
		}
		row.PullMS = ms(perf.TimeN(1, 3, func() {
			out := graphblas.NewVector[bool](n)
			if _, err := graphblas.Into(out).Mask(visited).With(pullDesc).MxV(sr, g, visited); err != nil {
				panic(err)
			}
		}))
		rows = append(rows, row)
	}
	return rows, nil
}

func countDepth(depths []int32, d int32) int {
	c := 0
	for _, x := range depths {
		if x == d {
			c++
		}
	}
	return c
}

// Fig6Point is one (iteration, size, runtime) sample of the Figure 6
// scatter: Mode is "push" or "pull", NNZ is the frontier size for push
// series and the unvisited count for pull series.
type Fig6Point struct {
	Mode      string
	Source    int
	Iteration int
	NNZ       int
	MS        float64
}

// Fig6 reproduces Figure 6: BFS from `sources` random roots on kron, once
// push-only and once pull-only, recording each iteration's size and
// runtime. The push series traces the supervertex oval; the pull series
// traces the backwards-L.
func Fig6(scale, sources int) ([]Fig6Point, error) {
	g, err := KronDataset(scale).Build()
	if err != nil {
		return nil, err
	}
	n := g.NRows()
	roots := pickSources(g, sources, 11)
	var pts []Fig6Point
	for _, src := range roots {
		visited := 1
		trace := func(mode string) func(algorithms.IterStats) {
			return func(s algorithms.IterStats) {
				nnz := s.FrontierNNZ
				if mode == "pull" {
					nnz = n - visited
				}
				visited += s.FrontierNNZ
				pts = append(pts, Fig6Point{
					Mode: mode, Source: src, Iteration: s.Iteration,
					NNZ: nnz, MS: ms(s.Duration),
				})
			}
		}
		if _, err := algorithms.BFS(g, src, algorithms.BFSOptions{
			DisableDirectionOpt: true, Trace: trace("push"),
		}); err != nil {
			return nil, err
		}
		visited = 1
		if _, err := algorithms.BFS(g, src, algorithms.BFSOptions{
			ForcePull: true, Trace: trace("pull"),
		}); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// AblationRow is one configuration of the design-choice ablation.
type AblationRow struct {
	Config string
	MeanMS float64
}

// Ablation races the design choices left open beside Table 2's stack:
// operand reuse and a switch-point sensitivity sweep around the paper's
// α = β = 0.01.
func Ablation(scale, sources, runs int) ([]AblationRow, error) {
	g, err := KronDataset(scale).Build()
	if err != nil {
		return nil, err
	}
	roots := pickSources(g, sources, 13)
	configs := []struct {
		name string
		opt  algorithms.BFSOptions
	}{
		{"no-operand-reuse", algorithms.BFSOptions{DisableOperandReuse: true}},
		{"switchpoint=0.001", algorithms.BFSOptions{SwitchPoint: 0.001}},
		{"switchpoint=0.003", algorithms.BFSOptions{SwitchPoint: 0.003}},
		{"switchpoint=0.01 (paper)", algorithms.BFSOptions{SwitchPoint: 0.01}},
		{"switchpoint=0.03", algorithms.BFSOptions{SwitchPoint: 0.03}},
		{"switchpoint=0.1", algorithms.BFSOptions{SwitchPoint: 0.1}},
	}
	var rows []AblationRow
	for _, cfg := range configs {
		var total time.Duration
		for _, src := range roots {
			total += perf.TimeN(1, runs, func() {
				if _, err := algorithms.BFS(g, src, cfg.opt); err != nil {
					panic(err)
				}
			})
		}
		rows = append(rows, AblationRow{
			Config: cfg.name,
			MeanMS: ms(total / time.Duration(len(roots))),
		})
	}
	return rows, nil
}

// pickSources chooses up to k distinct non-isolated vertices,
// deterministically for a seed.
func pickSources(g *graphblas.Matrix[bool], k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	csr := g.CSR()
	var roots []int
	seen := map[int]bool{}
	for attempts := 0; len(roots) < k && attempts < 100*k+1000; attempts++ {
		v := rng.Intn(g.NRows())
		if seen[v] || csr.RowLen(v) == 0 {
			continue
		}
		seen[v] = true
		roots = append(roots, v)
	}
	if len(roots) == 0 {
		roots = []int{0}
	}
	return roots
}
