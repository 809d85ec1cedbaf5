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
// would have scheduled. The decision-quality table in `ppbench bench`
// reports the fraction of iterations where each model picked the
// measured-faster kernel, so the perf trajectory in CI tracks decision
// accuracy, not just ns/op.

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

// decisionReplay reconstructs every BFS level of one traversal and times
// both kernels on it, mirroring the Fig5 replay; each level is then
// planned independently under both models (separate hysteresis states, so
// each model's trajectory is the one it would really produce).
func decisionReplay(name string, g *graphblas.Matrix[bool], model *core.CostModel) (*DecisionReport, error) {
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
	avgDeg := core.AvgRowDegree(g.CSR().NNZ(), n)
	csc := g.CSC()

	rep := &DecisionReport{Graph: name, CalAccuracy: -1}
	var unitState, calState core.PlanState
	unitGood, calGood := 0, 0
	for depth := int32(1); depth <= maxDepth; depth++ {
		frontier := graphblas.NewVector[bool](n)
		visited := graphblas.NewVector[bool](n)
		visited.ToBitset()
		visitedCount := 0
		for v, d := range res.Depths {
			if d == depth-1 {
				_ = frontier.SetElement(v, true)
			}
			if d >= 0 && d < depth {
				_ = visited.SetElement(v, true)
				visitedCount++
			}
		}
		frontierInd, _ := frontier.SparseIndices()
		pushEdges := 0.0
		for _, i := range frontierInd {
			pushEdges += float64(csc.RowLen(int(i)))
		}
		row := DecisionRow{Iteration: int(depth), FrontierNNZ: frontier.NVals()}

		// Measure both kernels on this level's real operands, the way BFS
		// would run them: masked push on the sparse frontier, masked pull
		// with operand reuse off the word-packed visited set.
		// No NoAutoConvert: a forced push still takes the planner's
		// sort-free bitmap scatter on dense frontiers, exactly like the
		// kernel BFS would schedule.
		pushDesc := &graphblas.Descriptor{
			Transpose: true, StructuralComplement: true,
			Direction: graphblas.ForcePush, StructureOnly: true,
		}
		row.PushMS = ms(perf.TimeN(1, 3, func() {
			out := graphblas.NewVector[bool](n)
			if _, err := graphblas.Into(out).Mask(visited).With(pushDesc).MxV(sr, g, frontier); err != nil {
				panic(err)
			}
		}))
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

		in := core.PlanInput{
			NNZ: frontier.NVals(), N: n, OutRows: n,
			PushEdges: pushEdges, AvgDeg: avgDeg,
			MaskAllowFrac: float64(n-visitedCount) / float64(n),
			InKind:        core.KindBitset,
		}
		row.UnitDir = core.DecideDirection(in, &unitState).Dir
		row.UnitGood = decisionGood(row.UnitDir, row.PushMS, row.PullMS)
		if row.UnitGood {
			unitGood++
		}
		if model != nil {
			in.Model = *model
			row.CalDir = core.DecideDirection(in, &calState).Dir
			row.CalGood = decisionGood(row.CalDir, row.PushMS, row.PullMS)
			if row.CalGood {
				calGood++
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if len(rep.Rows) > 0 {
		rep.UnitAccuracy = float64(unitGood) / float64(len(rep.Rows))
		if model != nil {
			rep.CalAccuracy = float64(calGood) / float64(len(rep.Rows))
		}
	}
	return rep, nil
}

// decisionGood grades one choice against the two measurements.
func decisionGood(dir core.Direction, pushMS, pullMS float64) bool {
	if dir == core.Push {
		return pushMS <= pullMS*decisionTolerance
	}
	return pullMS <= pushMS*decisionTolerance
}
