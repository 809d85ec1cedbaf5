package harness

import (
	"math/rand"
	"time"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/core"
	"pushpull/internal/perf"
)

// levelSink, when set, sees every level an experiment's traversal plans;
// tests use it to check which cost model priced the levels.
var levelSink func(algorithms.IterStats)

// runBFS is every experiment's traversal: opt planned under model (nil is
// the unit model), with levelSink attached.
func runBFS(g *graphblas.Matrix[bool], src int, opt algorithms.BFSOptions, model *core.CostModel) (algorithms.BFSResult, error) {
	opt.Model = model
	if sink, trace := levelSink, opt.Trace; sink != nil {
		opt.Trace = func(s algorithms.IterStats) {
			sink(s)
			if trace != nil {
				trace(s)
			}
		}
	}
	return algorithms.BFS(g, src, opt)
}

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
// `sources` random BFS roots, `runs` timed repetitions each. Every step
// plans under model (nil is the unit model).
func Table2(scale, sources, runs int, model *core.CostModel) ([]Table2Row, error) {
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
				r, err := runBFS(g, src, step.opt, model)
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
// the runtime of both masked kernels at each level of a kron BFS, timed on
// the replay the decision-quality table runs (replayLevels), whose
// traversal plans under model.
func Fig5(scale int, model *core.CostModel) ([]Fig5Row, error) {
	g, err := KronDataset(scale).Build()
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	err = replayLevels(g, pickSources(g, 1, 3)[0], model, func(depth int32, frontier, visited *graphblas.Vector[bool], push, pull func() core.Plan) {
		rows = append(rows, Fig5Row{
			Iteration:    int(depth),
			FrontierNNZ:  frontier.NVals(),
			UnvisitedNNZ: g.NRows() - visited.NVals(),
			PushMS:       ms(perf.TimeN(1, 3, func() { push() })),
			PullMS:       ms(perf.TimeN(1, 3, func() { pull() })),
		})
	})
	return rows, err
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
// traces the backwards-L. model prices the (forced) levels' plans.
func Fig6(scale, sources int, model *core.CostModel) ([]Fig6Point, error) {
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
		if _, err := runBFS(g, src, algorithms.BFSOptions{
			DisableDirectionOpt: true, Trace: trace("push"),
		}, model); err != nil {
			return nil, err
		}
		visited = 1
		if _, err := runBFS(g, src, algorithms.BFSOptions{
			ForcePull: true, Trace: trace("pull"),
		}, model); err != nil {
			return nil, err
		}
	}
	return pts, nil
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
