package harness

import (
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
// iterations where each model picked the measured-faster kernel.

// DecisionRow is one BFS iteration of the decision-quality replay.
type DecisionRow struct {
	Iteration   int
	FrontierNNZ int
	PushMS      float64
	PullMS      float64
	// UnitDir and CalDir are the directions the unit and calibrated
	// models would schedule (CalDir meaningless when no model was given).
	UnitDir core.Direction
	CalDir  core.Direction
	// UnitGood/CalGood report whether the scheduled kernel was measured
	// faster-or-equal (within the noise tolerance) than the alternative.
	UnitGood bool
	CalGood  bool
}

// DecisionReport is one graph's replay plus the headline accuracies.
type DecisionReport struct {
	Graph string
	Rows  []DecisionRow
	// UnitAccuracy and CalAccuracy are the fraction of iterations whose
	// scheduled kernel was measured faster-or-equal. CalAccuracy is -1
	// when no calibrated model was supplied.
	UnitAccuracy float64
	CalAccuracy  float64
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
	for _, ds := range decisionDatasets(scale) {
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

// decisionDatasets pairs the scale-free kron stand-in with a uniform
// random graph of similar size: the two regimes whose crossovers differ
// the most (Besta et al.'s machine- and workload-dependence).
func decisionDatasets(scale int) []Dataset {
	kron := KronDataset(scale)
	return []Dataset{
		{Name: "kron", Build: kron.Build},
		{Name: "uniform", Build: uniformDataset(scale)},
	}
}

func uniformDataset(scale int) func() (*graphblas.Matrix[bool], error) {
	return func() (*graphblas.Matrix[bool], error) {
		n := 1 << scale
		return generate.ErdosRenyi(n, 8/float64(n), 404)
	}
}

// decisionReplay times both kernels at every level of one traversal
// (replayLevels, the replay Fig5 shares); each level is then planned
// independently under both models (separate hysteresis states, so each
// model's trajectory is the one it would really produce). As in MxV, the
// calibrated plans are scaled by a corrector that observes the raw
// prediction against the measured time of the chosen kernel.
func decisionReplay(name string, g *graphblas.Matrix[bool], model *core.CostModel) (*DecisionReport, error) {
	n := g.NRows()
	avgDeg := core.AvgRowDegree(g.CSR().NNZ(), n)
	csc := g.CSC()
	rep := &DecisionReport{Graph: name, CalAccuracy: -1}
	var unitState, calState core.PlanState
	var corr core.Corrector
	unitGood, calGood := 0, 0
	err := replayLevels(g, model, func(depth int32, frontier, visited *graphblas.Vector[bool], push, pull func()) {
		frontierInd, _ := frontier.SparseIndices()
		pushEdges := 0.0
		for _, i := range frontierInd {
			pushEdges += float64(csc.RowLen(int(i)))
		}
		row := DecisionRow{Iteration: int(depth), FrontierNNZ: frontier.NVals()}
		pushD, pullD := perf.TimeN(1, 3, push), perf.TimeN(1, 3, pull)
		row.PushMS, row.PullMS = ms(pushD), ms(pullD)

		in := core.PlanInput{
			NNZ: frontier.NVals(), N: n, OutRows: n,
			PushEdges: pushEdges, AvgDeg: avgDeg,
			MaskAllowFrac: float64(n-visited.NVals()) / float64(n),
			InKind:        core.KindBitset,
		}
		row.UnitDir = core.DecideDirection(in, &unitState).Dir
		row.UnitGood = decisionGood(row.UnitDir, row.PushMS, row.PullMS)
		if row.UnitGood {
			unitGood++
		}
		if model != nil {
			in.Model, in.Correct = *model, &corr
			plan := core.DecideDirection(in, &calState)
			measured := pushD
			if plan.Dir == core.Pull {
				measured = pullD
			}
			corr.Observe(plan.Dir, plan.PredictedNs, float64(measured.Nanoseconds()))
			row.CalDir = plan.Dir
			row.CalGood = decisionGood(row.CalDir, row.PushMS, row.PullMS)
			if row.CalGood {
				calGood++
			}
		}
		rep.Rows = append(rep.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	if len(rep.Rows) > 0 {
		rep.UnitAccuracy = float64(unitGood) / float64(len(rep.Rows))
		if model != nil {
			rep.CalAccuracy = float64(calGood) / float64(len(rep.Rows))
		}
	}
	return rep, nil
}

// replayLevels runs a BFS planned under model (nil is the unit model) from
// g's replay root and calls level for each level 1..maxDepth — the levels
// that discover vertices — with the operands entering that level and its
// two timed kernel bodies. BFS's final
// level, which reads the deepest frontier and finds every product masked
// out, is not replayed. One output and one workspace serve the whole
// replay, pinned the way BFS pins them: the timed bodies then run the
// kernels alone.
func replayLevels(g *graphblas.Matrix[bool], model *core.CostModel, level func(depth int32, frontier, visited *graphblas.Vector[bool], push, pull func())) error {
	res, err := runBFS(g, pickSources(g, 1, 3)[0], algorithms.BFSOptions{}, model)
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
// pull. Both write into out through the pinned ws, so a warmed body
// allocates nothing. A forced push still takes the planner's sort-free
// scatter on dense frontiers, exactly like the kernel BFS would schedule.
func levelKernels(g *graphblas.Matrix[bool], frontier, visited, out *graphblas.Vector[bool], ws *graphblas.Workspace) (push, pull func()) {
	sr := graphblas.OrAndBool()
	body := func(dir graphblas.Direction) func() {
		desc := &graphblas.Descriptor{
			Transpose: true, StructuralComplement: true,
			Direction: dir, StructureOnly: true, Workspace: ws,
		}
		return func() {
			if _, err := graphblas.Into(out).Mask(visited).PullInput(visited).With(desc).MxV(sr, g, frontier); err != nil {
				panic(err)
			}
		}
	}
	return body(graphblas.ForcePush), body(graphblas.ForcePull)
}

// decisionGood grades one choice against the two measurements.
func decisionGood(dir core.Direction, pushMS, pullMS float64) bool {
	if dir == core.Push {
		return pushMS <= pullMS*decisionTolerance
	}
	return pullMS <= pushMS*decisionTolerance
}
