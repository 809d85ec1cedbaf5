package harness

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/core"
	"pushpull/internal/par"
)

// testScale keeps harness tests fast: 2^10 vertices.
const testScale = 10

func TestDatasetsBuildAndAreDistinct(t *testing.T) {
	all := Datasets(testScale)
	if len(all) != 11 {
		t.Fatalf("want 11 datasets, got %d", len(all))
	}
	names := map[string]bool{}
	for _, ds := range all {
		if names[ds.Name] {
			t.Fatalf("duplicate dataset %s", ds.Name)
		}
		names[ds.Name] = true
		g, err := ds.Build()
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if g.NRows() == 0 || g.NVals() == 0 {
			t.Fatalf("%s: empty graph", ds.Name)
		}
	}
}

func TestDatasetClasses(t *testing.T) {
	// Scale-free stand-ins must be skewed; mesh stand-ins bounded-degree.
	for _, ds := range Datasets(testScale) {
		g, err := ds.Build()
		if err != nil {
			t.Fatal(err)
		}
		skew := float64(g.MaxDegree()) / g.AvgDegree()
		switch ds.Kind {
		case "rs", "gs":
			if skew < 5 {
				t.Errorf("%s: scale-free stand-in not skewed (max/avg=%.1f)", ds.Name, skew)
			}
		case "rm", "gm":
			if g.MaxDegree() > 64 {
				t.Errorf("%s: mesh stand-in has max degree %d", ds.Name, g.MaxDegree())
			}
		default:
			t.Errorf("%s: unknown kind %q", ds.Name, ds.Kind)
		}
	}
}

func TestFindDataset(t *testing.T) {
	if _, err := FindDataset(testScale, "kron"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindDataset(testScale, "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestMicroSweepCountedReproducesTable1 fits Table 1's shapes to the work
// the serving kernels count, and pins those counts: they must not depend on
// the run or on the worker count.
func TestMicroSweepCountedReproducesTable1(t *testing.T) {
	sweep := func(workers int) *MicroReport {
		t.Helper()
		defer par.SetMaxWorkers(par.SetMaxWorkers(workers))
		rep, err := MicroSweep(testScale, 4)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := sweep(par.MaxWorkers())
	if len(rep.Points) != 4 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	counts := func(r *MicroReport) []MicroCost {
		var cs []MicroCost
		for _, pt := range r.Points {
			cs = append(cs, pt.Accesses)
		}
		return cs
	}
	want := counts(rep)
	for _, workers := range []int{par.MaxWorkers(), 1, 4} {
		if got := counts(sweep(workers)); !slices.Equal(got, want) {
			t.Fatalf("counts at %d workers %v, first run %v", workers, got, want)
		}
	}
	// Table 1 shape: row-unmasked flat; the others grow with the sweep.
	if g := rep.Growth["row-nomask"]; g < 0.99 || g > 1.01 {
		t.Fatalf("row-nomask growth %.3f, want flat", g)
	}
	if g := rep.Growth["row-mask"]; g < 2 {
		t.Fatalf("row-mask growth %.3f, want linear-ish", g)
	}
	if g := rep.Growth["col-nomask"]; g < 2 {
		t.Fatalf("col-nomask growth %.3f, want linear-ish", g)
	}
	if g := rep.Growth["col-mask"]; g < 2 {
		t.Fatalf("col-mask growth %.3f, want linear-ish", g)
	}
	// Masked column never does less work than unmasked (Table 1 rows 3-4).
	for i, pt := range want {
		if pt.ColMask < pt.ColNoMask {
			t.Fatalf("point %d: masked col (%.0f) cheaper than unmasked (%.0f)", i, pt.ColMask, pt.ColNoMask)
		}
	}
}

func TestMicroSweepTimed(t *testing.T) {
	rep, err := MicroSweep(testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	for _, pt := range rep.Points {
		if c := pt.MS; c.RowNoMask <= 0 || c.RowMask <= 0 || c.ColNoMask <= 0 || c.ColMask <= 0 {
			t.Fatalf("non-positive timing: %+v", pt)
		}
	}
}

func TestTable2ShapesHold(t *testing.T) {
	// Each row is a sub-millisecond wall time, so one table's ordering is at
	// the mercy of whoever else is on the host. Interference only ever adds
	// time: the shape is asserted on each row's best of five tables.
	const tables = 5
	var best []float64
	for rep := 0; rep < tables; rep++ {
		rows, err := Table2(testScale, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("want 6 rows, got %d", len(rows))
		}
		if rows[0].Optimization != "Baseline" || rows[5].Optimization != "Operand reuse" {
			t.Fatalf("row order wrong: %+v", rows)
		}
		for i, r := range rows {
			if r.GTEPS <= 0 || r.MeanMS <= 0 {
				t.Fatalf("row %d: non-positive measurement %+v", i, r)
			}
			if rep == 0 {
				best = append(best, r.MeanMS)
			}
			best[i] = min(best[i], r.MeanMS)
		}
	}
	// The full stack must beat the baseline (the paper's 48× end-to-end;
	// any margin > 1 validates the shape at CPU scale).
	if best[5] >= best[0] {
		t.Fatalf("full stack (%.3fms) not faster than baseline (%.3fms), best of %d each", best[5], best[0], tables)
	}
}

func TestFig5RowsConsistent(t *testing.T) {
	rows, err := Fig5(testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("BFS too shallow for Fig5: %d rows", len(rows))
	}
	for i, r := range rows {
		if r.FrontierNNZ <= 0 {
			t.Fatalf("row %d: empty frontier", i)
		}
		if r.UnvisitedNNZ < 0 {
			t.Fatalf("row %d: negative unvisited", i)
		}
		if r.PushMS <= 0 || r.PullMS <= 0 {
			t.Fatalf("row %d: non-positive timings %+v", i, r)
		}
		if i > 0 && r.UnvisitedNNZ > rows[i-1].UnvisitedNNZ {
			t.Fatalf("unvisited grew between iterations %d and %d", i-1, i)
		}
	}
}

func TestFig6SeriesCoverBothModes(t *testing.T) {
	pts, err := Fig6(testScale, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]int{}
	for _, p := range pts {
		modes[p.Mode]++
		if p.NNZ < 0 || p.MS < 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	if modes["push"] == 0 || modes["pull"] == 0 {
		t.Fatalf("missing series: %v", modes)
	}
}

func TestCompareAndFig7(t *testing.T) {
	rows, err := Compare(testScale, 1, 1, []string{"kron", "roadnet"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, row := range rows {
		for _, name := range FrameworkOrder {
			cell, ok := row.Cells[name]
			if !ok {
				t.Fatalf("%s: missing column %s", row.Dataset, name)
			}
			if cell.RuntimeMS <= 0 || cell.MTEPS <= 0 {
				t.Fatalf("%s/%s: non-positive cell %+v", row.Dataset, name, cell)
			}
		}
	}
	slow := Fig7(rows)
	for _, s := range slow {
		if s.Slowdowns["Gunrock"] < 0.99 || s.Slowdowns["Gunrock"] > 1.01 {
			t.Fatalf("Gunrock slowdown vs itself = %g", s.Slowdowns["Gunrock"])
		}
	}
	gm := GeomeanSpeedups(rows)
	if gm["SuiteSparse"] <= 0 {
		t.Fatalf("geomean speedups: %v", gm)
	}
}

func TestTable3Runs(t *testing.T) {
	rows, err := Table3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("want 11 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Vertices <= 0 || r.Edges <= 0 || r.Diameter <= 0 {
			t.Fatalf("degenerate stats: %+v", r)
		}
	}
	// Mesh stand-ins must have much larger diameter than scale-free ones.
	var kronDiam, roadDiam int
	for _, r := range rows {
		if r.Name == "kron" {
			kronDiam = r.Diameter
		}
		if r.Name == "roadnet" {
			roadDiam = r.Diameter
		}
	}
	if roadDiam <= kronDiam {
		t.Fatalf("road diameter (%d) should exceed kron's (%d)", roadDiam, kronDiam)
	}
}

// TestTuneReachesEveryExperiment checks that a calibrated model passed to
// an experiment prices the levels its traversals plan (PredictedNs is set
// only by a calibrated model), and that without one no level is priced in
// nanoseconds.
func TestTuneReachesEveryExperiment(t *testing.T) {
	model := &core.CostModel{
		GatherNs: 2.6, ProbeWordNs: 0.56, ProbeDenseNs: 0.1,
		RowNs: 7.6, ScatterNs: 1.7, ClearNs: 0.3, SortNs: 0.85, SetupNs: 250,
	}
	experiments := []struct {
		name string
		run  func(m *core.CostModel) error
	}{
		{"table2", func(m *core.CostModel) error { _, err := Table2(testScale, 1, 1, m); return err }},
		{"fig5", func(m *core.CostModel) error { _, err := Fig5(testScale, m); return err }},
		{"fig6", func(m *core.CostModel) error { _, err := Fig6(testScale, 1, m); return err }},
		{"compare", func(m *core.CostModel) error { _, err := Compare(testScale, 1, 1, []string{"kron"}, m); return err }},
	}
	defer func() { levelSink = nil }()
	for _, e := range experiments {
		for _, m := range []*core.CostModel{model, nil} {
			priced, levels := 0, 0
			levelSink = func(s algorithms.IterStats) {
				levels++
				if s.PredictedNs > 0 {
					priced++
				}
			}
			if err := e.run(m); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			switch {
			case levels == 0:
				t.Fatalf("%s: no traversal level observed", e.name)
			case m != nil && priced == 0:
				t.Errorf("%s: calibrated model priced none of %d levels", e.name, levels)
			case m == nil && priced > 0:
				t.Errorf("%s: %d of %d levels priced in ns without a model", e.name, priced, levels)
			}
		}
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	err := RenderTable(&buf, "Title", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "333") {
		t.Fatalf("render output:\n%s", out)
	}
	buf.Reset()
	if err := RenderCSV(&buf, []string{"x", "y"}, [][]string{{"1", "2"}}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,2\n" {
		t.Fatalf("csv output %q", buf.String())
	}
	if F(0) != "0" || F(12345) != "12345" || F(12.3) != "12.3" || F(0.5) != "0.500" || F(1e-5) != "1.00e-05" {
		t.Fatalf("F formatting: %s %s %s %s %s", F(0), F(12345), F(12.3), F(0.5), F(1e-5))
	}
	if I(7) != "7" {
		t.Fatal("I formatting")
	}
}

// TestDecisionLevelKernelsAllocateNothing pins what the decision replay and
// Fig5 time: once warmed, each level's push and pull bodies run the kernel
// alone — no output allocation, no workspace pool round-trip. It walks the
// levels until the frontier empties, one past replayLevels: BFS's last
// level reads the deepest frontier and every product is masked out.
func TestDecisionLevelKernelsAllocateNothing(t *testing.T) {
	g, err := KronDataset(testScale).Build()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NRows()
	res, err := algorithms.BFS(g, pickSources(g, 1, 3)[0], algorithms.BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := graphblas.NewVector[bool](n)
	ws := graphblas.NewWorkspace(n, n)
	levels := 0
	for depth := int32(1); ; depth++ {
		frontier, visited := levelOperands(res.Depths, depth)
		if frontier.NVals() == 0 {
			break
		}
		levels++
		push, pull := levelKernels(g, frontier, visited, out, ws)
		for name, body := range map[string]func() core.Plan{"push": push, "pull": pull} {
			body() // warm
			if allocs := testing.AllocsPerRun(5, func() { body() }); allocs != 0 {
				t.Errorf("level %d %s: %v allocs per timed run, want 0", depth, name, allocs)
			}
		}
	}
	if levels < 3 {
		t.Fatalf("replayed %d levels, want a multi-level traversal", levels)
	}
}

// TestGradeRegret pins the decision table's grading: regret is 0 when
// every choice is the faster kernel, and one slower choice adds exactly
// its gap; accuracy counts a choice within decisionTolerance as good.
func TestGradeRegret(t *testing.T) {
	rows := []DecisionRow{
		{PushMS: 1, PullMS: 3, Dir: [2]core.Direction{core.Push, core.Push}},
		{PushMS: 5, PullMS: 2, Dir: [2]core.Direction{core.Pull, core.Push}},
		{PushMS: 4, PullMS: 4.2, Dir: [2]core.Direction{core.Push, core.Pull}},
	}
	acc, regret := grade(rows, 0)
	if acc != 1 || regret != 0 {
		t.Fatalf("all-faster choices: accuracy %g, regret %g; want 1, 0", acc, regret)
	}
	acc, regret = grade(rows, 1)
	if want := (5 - 2) + (4.2 - 4); acc != 2.0/3 || math.Abs(regret-want) > 1e-12 {
		t.Fatalf("one slower choice and one within tolerance: accuracy %g, regret %g; want 2/3, %g", acc, regret, want)
	}
	if good := []bool{rows[0].Good[1], rows[1].Good[1], rows[2].Good[1]}; !good[0] || good[1] || !good[2] {
		t.Fatalf("per-row grades %v, want [true false true]", good)
	}
}
