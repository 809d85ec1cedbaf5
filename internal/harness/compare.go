package harness

import (
	"fmt"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/internal/core"
	"pushpull/internal/frameworks"
	"pushpull/internal/perf"
)

// Table3 regenerates the dataset-description table from the stand-in
// graphs' measured statistics.
func Table3(scale int) ([]generate.GraphStats, error) {
	var rows []generate.GraphStats
	for _, ds := range Datasets(scale) {
		g, err := ds.Build()
		if err != nil {
			return nil, fmt.Errorf("harness: build %s: %w", ds.Name, err)
		}
		st, err := generate.Stats(ds.Name, g, ds.Kind, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, st)
	}
	return rows, nil
}

// CompareCell is one framework's result on one dataset.
type CompareCell struct {
	RuntimeMS float64
	MTEPS     float64
}

// CompareRow is one dataset's row of the Figure 7 comparison table.
type CompareRow struct {
	Dataset string
	// Cells is keyed by framework name, in FrameworkOrder.
	Cells map[string]CompareCell
}

// FrameworkOrder is the paper's column order for the comparison table.
var FrameworkOrder = []string{"SuiteSparse", "CuSha", "Baseline", "Ligra", "Gunrock", "This Work"}

// Compare runs the full framework comparison (the table in Figure 7):
// every dataset × every framework, averaged over `sources` random roots.
// Restrict to a subset of dataset names by passing them; nil means all.
// "This Work" plans under model (nil is the unit model).
func Compare(scale, sources, runs int, only []string, model *core.CostModel) ([]CompareRow, error) {
	want := map[string]bool{}
	for _, n := range only {
		want[n] = true
	}
	var rows []CompareRow
	for _, ds := range Datasets(scale) {
		if len(want) > 0 && !want[ds.Name] {
			continue
		}
		g, err := ds.Build()
		if err != nil {
			return nil, fmt.Errorf("harness: build %s: %w", ds.Name, err)
		}
		fg := frameworks.FromMatrix(g)
		roots := pickSources(g, sources, 17)
		row := CompareRow{Dataset: ds.Name, Cells: map[string]CompareCell{}}

		for _, r := range frameworks.All() {
			var total time.Duration
			var edges int64
			for _, src := range roots {
				var depths []int32
				total += perf.TimeN(1, runs, func() { depths = r.BFS(fg, src) })
				edges += traversedEdges(fg, depths)
			}
			mean := total / time.Duration(len(roots))
			row.Cells[r.Name] = CompareCell{
				RuntimeMS: ms(mean),
				MTEPS:     perf.MTEPS(edges/int64(len(roots)), mean),
			}
		}
		// This work: the full direction-optimized GraphBLAS BFS.
		var total time.Duration
		var edges int64
		for _, src := range roots {
			var res algorithms.BFSResult
			total += perf.TimeN(1, runs, func() {
				r, err := runBFS(g, src, algorithms.BFSOptions{}, model)
				if err != nil {
					panic(err)
				}
				res = r
			})
			edges += res.EdgesTraversed
		}
		mean := total / time.Duration(len(roots))
		row.Cells["This Work"] = CompareCell{
			RuntimeMS: ms(mean),
			MTEPS:     perf.MTEPS(edges/int64(len(roots)), mean),
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// traversedEdges sums the out-degrees of reached vertices — the TEPS
// numerator, consistent with algorithms.BFSResult.EdgesTraversed.
func traversedEdges(g *frameworks.Graph, depths []int32) int64 {
	var edges int64
	for v, d := range depths {
		if d >= 0 {
			edges += int64(g.Out.RowLen(v))
		}
	}
	return edges
}

// SlowdownRow is one dataset's bars in the Figure 7 chart: each
// framework's runtime normalized to Gunrock's.
type SlowdownRow struct {
	Dataset   string
	Slowdowns map[string]float64
}

// Fig7 derives the slowdown-vs-Gunrock chart from comparison rows.
func Fig7(rows []CompareRow) []SlowdownRow {
	var out []SlowdownRow
	for _, row := range rows {
		base := row.Cells["Gunrock"].RuntimeMS
		sr := SlowdownRow{Dataset: row.Dataset, Slowdowns: map[string]float64{}}
		for name, cell := range row.Cells {
			if base > 0 {
				sr.Slowdowns[name] = cell.RuntimeMS / base
			}
		}
		out = append(out, sr)
	}
	return out
}

// GeomeanSpeedups reports this work's geometric-mean runtime ratio against
// each other framework (values > 1 mean this work is faster), the
// Section 7.3 summary numbers.
func GeomeanSpeedups(rows []CompareRow) map[string]float64 {
	out := map[string]float64{}
	for _, name := range FrameworkOrder {
		if name == "This Work" {
			continue
		}
		var ratios []float64
		for _, row := range rows {
			mine := row.Cells["This Work"].RuntimeMS
			theirs := row.Cells[name].RuntimeMS
			if mine > 0 && theirs > 0 {
				ratios = append(ratios, theirs/mine)
			}
		}
		out[name] = perf.GeoMean(ratios)
	}
	return out
}
