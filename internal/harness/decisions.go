package harness

import (
	"sort"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/core"
	"pushpull/internal/perf"
)

// This file grades the direction planner against the machine: for every
// iteration of a BFS it reruns *both* kernels on the iteration's actual
// frontier, then asks each cost model — unit RAM weights and, when a
// profile is loaded, the calibrated nanosecond model — which kernel it
// would have scheduled. The calibrated planner is graded the way it
// serves: with a per-traversal core.Corrector fed the measured time of
// each kernel it chose. `ppbench decisions` reports the fraction of
// iterations where each model picked the measured-faster kernel, and the
// time its wrong picks cost. The same replay, from several roots over more
// graphs, is what internal/calibrate fits the cost model on
// (CalibrationPlans).

// DecisionRow is one BFS iteration of the decision-quality replay.
type DecisionRow struct {
	Iteration   int
	FrontierNNZ int
	PushMS      float64
	PullMS      float64
	// Dir is the direction each model would schedule, the unit model's
	// first and the calibrated one's second (meaningless when no model was
	// given). Good reports whether that kernel measured within
	// decisionTolerance of the faster one.
	Dir  [2]core.Direction
	Good [2]bool
}

// DecisionReport is one graph's replay plus the headline grades.
type DecisionReport struct {
	Graph string
	Rows  []DecisionRow
	// Accuracy is, per model as in DecisionRow.Dir, the fraction of
	// iterations whose scheduled kernel was Good; RegretMS is the total
	// regret, Σ over iterations of the scheduled kernel's ms minus the
	// faster kernel's. The calibrated grades are -1 without a model.
	Accuracy, RegretMS [2]float64
}

// decisionTolerance treats a decision as correct when its kernel is
// within 10% of the faster one: both directions measure equal up to
// timing noise near the crossover, and either choice is right there.
const decisionTolerance = 1.10

// DecisionQuality replays a BFS per graph — the skewed kron stand-in and
// a uniform Erdős–Rényi — timing both kernels at every level and grading
// both models' choices. model == nil grades only the unit model.
func DecisionQuality(scale int, model *core.CostModel) ([]DecisionReport, error) {
	var reports []DecisionReport
	for _, ds := range replayDatasets(scale)[:2] {
		g, err := ds.Build()
		if err != nil {
			return nil, err
		}
		rep, err := decisionReplay(ds.Name, g, model)
		if err != nil {
			return nil, err
		}
		reports = append(reports, *rep)
	}
	return reports, nil
}

// replayDatasets lists the replayed graphs. The decision table grades the
// first two: the scale-free kron stand-in and a uniform random graph of
// similar size, the two regimes whose crossovers differ the most (Besta et
// al.'s machine- and workload-dependence). Calibration adds the grid and
// the RGG, whose long traversals of small frontiers pin the fixed terms.
func replayDatasets(scale int) []Dataset {
	grid, _ := FindDataset(scale, "roadnet")
	rgg, _ := FindDataset(scale, "rgg")
	return []Dataset{
		{Name: "kron", Build: KronDataset(scale).Build},
		{Name: "uniform", Build: func() (*graphblas.Matrix[bool], error) {
			n := 1 << scale
			return generate.ErdosRenyi(n, 8/float64(n), 404)
		}},
		{Name: "grid", Build: grid.Build},
		{Name: "rgg", Build: rgg.Build},
	}
}

// decisionReplay times both kernels at every level of one traversal
// (replayLevels, the replay Fig5 shares); each level is then planned
// independently under each model (separate hysteresis states, so each
// model's trajectory is the one it would really produce). As in a served
// MxV, the calibrated plans are scaled by a corrector that observes the raw
// prediction against the chosen kernel's Plan.MeasuredNs, the kernel alone;
// the rows' PushMS and PullMS time the whole MxV call of each direction.
func decisionReplay(name string, g *graphblas.Matrix[bool], model *core.CostModel) (*DecisionReport, error) {
	n := g.NRows()
	avgDeg := core.AvgRowDegree(g.CSR().NNZ(), n)
	models := []core.CostModel{{}}
	if model != nil {
		models = append(models, *model)
	}
	rep := &DecisionReport{Graph: name, Accuracy: [2]float64{-1, -1}, RegretMS: [2]float64{-1, -1}}
	var states [2]core.PlanState
	var corr core.Corrector
	err := replayLevels(g, pickSources(g, 1, 3)[0], model, func(depth int32, frontier, visited *graphblas.Vector[bool], push, pull func() core.Plan) {
		var pushPlan, pullPlan core.Plan
		pushD := perf.TimeN(1, 3, func() { pushPlan = push() })
		pullD := perf.TimeN(1, 3, func() { pullPlan = pull() })
		row := DecisionRow{Iteration: int(depth), FrontierNNZ: frontier.NVals(), PushMS: ms(pushD), PullMS: ms(pullD)}
		// The forced push's plan counted the frontier's Σ out-degree as its
		// gathered edges.
		in := core.PlanInput{
			NNZ: frontier.NVals(), N: n, OutRows: n,
			PushEdges: pushPlan.Work[core.TermGather], AvgDeg: avgDeg,
			MaskAllowFrac: float64(n-visited.NVals()) / float64(n),
			InKind:        core.KindBitset,
		}
		for i, m := range models {
			in.Model = m
			if m.Calibrated() {
				in.Correct = &corr
			}
			plan := core.DecideDirection(in, &states[i])
			measured := pushPlan.MeasuredNs
			if plan.Dir == core.Pull {
				measured = pullPlan.MeasuredNs
			}
			corr.Observe(plan.Dir, plan.PredictedNs, measured)
			row.Dir[i] = plan.Dir
		}
		rep.Rows = append(rep.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	for i := range models {
		rep.Accuracy[i], rep.RegretMS[i] = grade(rep.Rows, i)
	}
	return rep, nil
}

// grade scores model's choices over a replay, setting each row's Good: it
// returns the fraction of rows whose chosen kernel was within
// decisionTolerance of the faster one, and the total regret in ms,
// Σ (chosen kernel's ms − faster kernel's ms).
func grade(rows []DecisionRow, model int) (accuracy, regretMS float64) {
	good := 0
	for i := range rows {
		r := &rows[i]
		took, other := r.PushMS, r.PullMS
		if r.Dir[model] == core.Pull {
			took, other = other, took
		}
		if r.Good[model] = took <= other*decisionTolerance; r.Good[model] {
			good++
		}
		regretMS += max(took-other, 0)
	}
	if len(rows) > 0 {
		accuracy = float64(good) / float64(len(rows))
	}
	return accuracy, regretMS
}

// CalibrationPlans replays BFS from roots sources on each replayed graph
// at scale and hands every level's forced push and forced pull to level as
// the plans MxV recorded for them: the counted work of the kernel variant
// the plan priced and the kernel's MeasuredNs. Each direction runs once to
// warm up and then reps times; the plan kept is the run of median time.
// The traversals are planned by the unit model; under a forced direction
// the model only picks which push variant the plan prices and MxV runs.
func CalibrationPlans(scale, roots, reps int, level func(graph string, p core.Plan)) error {
	for _, ds := range replayDatasets(scale) {
		g, err := ds.Build()
		if err != nil {
			return err
		}
		for _, root := range pickSources(g, roots, 3) {
			err := replayLevels(g, root, nil, func(_ int32, _, _ *graphblas.Vector[bool], push, pull func() core.Plan) {
				level(ds.Name, medianRun(push, reps))
				level(ds.Name, medianRun(pull, reps))
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// medianRun runs body once to warm up, then reps times, and returns the
// plan of median MeasuredNs.
func medianRun(body func() core.Plan, reps int) core.Plan {
	body()
	plans := make([]core.Plan, max(reps, 1))
	for i := range plans {
		plans[i] = body()
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].MeasuredNs < plans[j].MeasuredNs })
	return plans[len(plans)/2]
}

// replayLevels runs a BFS planned under model (nil is the unit model) from
// root and calls level for each level 1..maxDepth — the levels that
// discover vertices — with the operands entering that level and its two
// kernel bodies, each returning the plan its MxV recorded. BFS's final
// level, which reads the deepest frontier and finds every product masked
// out, is not replayed. One output and one workspace serve the whole
// replay, pinned the way BFS pins them: the bodies then run the kernels
// alone.
func replayLevels(g *graphblas.Matrix[bool], root int, model *core.CostModel, level func(depth int32, frontier, visited *graphblas.Vector[bool], push, pull func() core.Plan)) error {
	res, err := runBFS(g, root, algorithms.BFSOptions{}, model)
	if err != nil {
		return err
	}
	maxDepth := int32(0)
	for _, d := range res.Depths {
		maxDepth = max(maxDepth, d)
	}
	n := g.NRows()
	out := graphblas.NewVector[bool](n)
	ws := graphblas.NewWorkspace(n, n)
	for depth := int32(1); depth <= maxDepth; depth++ {
		frontier, visited := levelOperands(res.Depths, depth)
		push, pull := levelKernels(g, frontier, visited, out, ws)
		level(depth, frontier, visited, push, pull)
	}
	return nil
}

// levelOperands rebuilds the BFS state entering level depth from the
// traversal's depths: the frontier (the vertices at depth-1, sparse) and
// the visited set (every vertex above depth, word-packed).
func levelOperands(depths []int32, depth int32) (frontier, visited *graphblas.Vector[bool]) {
	frontier = graphblas.NewVector[bool](len(depths))
	visited = graphblas.NewVector[bool](len(depths))
	visited.ToBitset()
	for v, d := range depths {
		if d == depth-1 {
			_ = frontier.SetElement(v, true)
		}
		if d >= 0 && d < depth {
			_ = visited.SetElement(v, true)
		}
	}
	return frontier, visited
}

// levelKernels returns the two timed bodies of one replayed level, run the
// way BFS runs a level — the masked matvec off the sparse frontier, with
// the word-packed visited set as the pull input — pinned to push and to
// pull. Each returns the plan its MxV recorded, with the kernel's
// MeasuredNs. Both write into out through the pinned ws, so a warmed body
// allocates nothing. A forced push runs the variant its plan priced, the
// sort or the bitmap scatter, exactly like the kernel BFS would schedule.
func levelKernels(g *graphblas.Matrix[bool], frontier, visited, out *graphblas.Vector[bool], ws *graphblas.Workspace) (push, pull func() core.Plan) {
	sr := graphblas.OrAndBool()
	body := func(dir graphblas.Direction) func() core.Plan {
		var plan core.Plan
		desc := &graphblas.Descriptor{
			Transpose: true, StructuralComplement: true,
			Direction: dir, StructureOnly: true, Workspace: ws, Plan: &plan,
		}
		return func() core.Plan {
			if _, err := graphblas.Into(out).Mask(visited).PullInput(visited).With(desc).MxV(sr, g, frontier); err != nil {
				panic(err)
			}
			return plan
		}
	}
	return body(graphblas.ForcePush), body(graphblas.ForcePull)
}
