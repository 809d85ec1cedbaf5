// Command ppbench regenerates every table and figure of the paper's
// evaluation from the synthetic stand-in datasets.
//
// Usage:
//
//	ppbench [flags] <experiment>
//
// Experiments:
//
//	table1    work the 4 serving matvec kernels count, random vectors (validates Table 1)
//	fig2      runtime of the same sweep (Figure 2)
//	table2    cumulative optimization impact on kron (Table 2)
//	table3    dataset description table (Table 3)
//	fig5      per-iteration frontier counts and push/pull runtimes (Figure 5)
//	fig6      per-iteration runtime vs size from many sources (Figure 6)
//	table4    framework comparison: runtime and MTEPS (the table in Figure 7)
//	fig7      slowdown vs Gunrock, derived from table4 (Figure 7 chart)
//	decisions both kernels timed at every BFS level on kron and a uniform
//	          graph, and the fraction of levels where each cost model (unit,
//	          and calibrated under -tune, with the per-run corrector served
//	          BFS uses) picked the measured-faster kernel
//	calibrate fit the host's per-term cost coefficients (ns per gathered
//	          edge, probed edge, scanned row, …) from microbenchmarks and
//	          write the PPTUNE_<os>_<arch>.json profile -tune loads
//	all       the paper experiments above in order (decisions and
//	          calibrate excluded; run them explicitly)
//
// Flags:
//
//	-scale N    log2 of the base vertex count (default 14)
//	-sources N  BFS roots per measurement (default 10, paper uses 10-1000)
//	-runs N     timed repetitions per root (default 3)
//	-points N   sweep points for table1/fig2 (default 8)
//	-datasets s comma-separated dataset subset for table4/fig7
//	-tune PATH  calibrate: where to write the fitted profile; every other
//	            experiment: load the profile, and every traversal it plans
//	            (table2, fig5, fig6, table4/fig7's This Work,
//	            decisions) prices directions with the calibrated cost model
//	            instead of unit RAM weights; table1, fig2 and table3 plan
//	            nothing
//	-quick      calibrate: fewer densities/repetitions (the CI smoke mode)
//	-csv        emit CSV instead of aligned tables
//	-json DIR   additionally write each experiment's tables as
//	            machine-readable DIR/BENCH_<experiment>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pushpull/internal/calibrate"
	"pushpull/internal/core"
	"pushpull/internal/harness"
)

func main() {
	var (
		scale    = flag.Int("scale", 14, "log2 of the base vertex count")
		sources  = flag.Int("sources", 10, "BFS roots per measurement")
		runs     = flag.Int("runs", 3, "timed repetitions per root")
		points   = flag.Int("points", 8, "sweep points for table1/fig2")
		datasets = flag.String("datasets", "", "comma-separated dataset subset for table4/fig7")
		tune     = flag.String("tune", "", "cost-model profile path: written by calibrate, loaded by every other experiment")
		quick    = flag.Bool("quick", false, "calibrate: fewer densities/repetitions")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonDir  = flag.String("json", "", "directory to write BENCH_<experiment>.json files into")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ppbench [flags] <table1|fig2|table2|table3|fig5|fig6|table4|fig7|decisions|calibrate|all>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg := config{
		scale:    *scale,
		sources:  *sources,
		runs:     *runs,
		points:   *points,
		quick:    *quick,
		tunePath: *tune,
		csv:      *csv,
		jsonDir:  *jsonDir,
		out:      os.Stdout,
	}
	if *datasets != "" {
		cfg.only = strings.Split(*datasets, ",")
	}
	if *tune != "" && flag.Arg(0) != "calibrate" {
		// Lenient load: a missing or corrupted profile downgrades the run to
		// the unit cost model (with a diagnostic) instead of aborting —
		// tuning is an optimization, not a prerequisite.
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ppbench: -tune: "+format+"\n", args...)
		}
		if prof := calibrate.LoadLenient(*tune, logf); prof != nil {
			cfg.model = &prof.Model
		}
	}
	if err := run(flag.Arg(0), cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	scale, sources, runs, points int
	// quick selects the calibrate experiment's smoke mode.
	quick bool
	// tunePath is where calibrate writes its profile (and where -tune
	// loaded the model in cfg.model from for the other experiments).
	tunePath string
	// model is the calibrated cost model loaded via -tune, passed to every
	// experiment that plans a direction; nil runs the planner on unit RAM
	// weights.
	model   *core.CostModel
	only    []string
	csv     bool
	jsonDir string
	out     io.Writer
	// tables accumulates every emitted table of the current experiment for
	// the -json sink.
	tables *[]jsonTable
}

// jsonTable is one emitted table in the machine-readable BENCH_*.json
// output.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func run(experiment string, cfg config) error {
	if experiment == "all" {
		for _, e := range []string{"table1", "fig2", "table2", "table3", "fig5", "fig6", "table4", "fig7"} {
			if err := run(e, cfg); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	if cfg.jsonDir != "" {
		cfg.tables = &[]jsonTable{}
	}
	var err error
	switch experiment {
	case "table1":
		err = table1(cfg)
	case "fig2":
		err = fig2(cfg)
	case "table2":
		err = table2(cfg)
	case "table3":
		err = table3(cfg)
	case "fig5":
		err = fig5(cfg)
	case "fig6":
		err = fig6(cfg)
	case "table4":
		err = table4(cfg)
	case "fig7":
		err = fig7(cfg)
	case "decisions":
		err = decisionsExperiment(cfg)
	case "calibrate":
		err = calibrateExperiment(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	if err == nil && cfg.tables != nil {
		err = writeJSON(cfg, experiment)
	}
	return err
}

// writeJSON persists the experiment's accumulated tables as
// BENCH_<experiment>.json under cfg.jsonDir.
func writeJSON(cfg config, experiment string) error {
	payload := struct {
		Experiment string      `json:"experiment"`
		Scale      int         `json:"scale"`
		Tables     []jsonTable `json:"tables"`
	}{Experiment: experiment, Scale: cfg.scale, Tables: *cfg.tables}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.jsonDir, "BENCH_"+experiment+".json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func emit(cfg config, title string, headers []string, rows [][]string) error {
	if cfg.tables != nil {
		*cfg.tables = append(*cfg.tables, jsonTable{Title: title, Headers: headers, Rows: rows})
	}
	if cfg.csv {
		return harness.RenderCSV(cfg.out, headers, rows)
	}
	return harness.RenderTable(cfg.out, title, headers, rows)
}

func microRows(rep *harness.MicroReport, cost func(harness.MicroPoint) harness.MicroCost) [][]string {
	rows := make([][]string, 0, len(rep.Points))
	for _, p := range rep.Points {
		c := cost(p)
		rows = append(rows, []string{
			harness.I(p.NNZ),
			harness.F(c.RowNoMask), harness.F(c.RowMask),
			harness.F(c.ColNoMask), harness.F(c.ColMask),
		})
	}
	return rows
}

func table1(cfg config) error {
	rep, err := harness.MicroSweep(cfg.scale, cfg.points)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Table 1 validation — work counted by the serving kernels on %s\n"+
		"(expected: row-nomask flat O(dM); row-mask O(d·nnz(m)); col O(d·nnz(f)·⌈log₂₅₆ M⌉):\n"+
		"the push radix-sorts in ⌈log₂₅₆ M⌉ digit passes, constant in nnz(f))", rep.Matrix)
	headers := []string{"nnz", "row-nomask", "row-mask", "col-nomask", "col-mask"}
	rows := microRows(rep, func(p harness.MicroPoint) harness.MicroCost { return p.Accesses })
	if err := emit(cfg, title, headers, rows); err != nil {
		return err
	}
	growth := [][]string{}
	for _, k := range []string{"row-nomask", "row-mask", "col-nomask", "col-mask"} {
		growth = append(growth, []string{k, harness.F(rep.Growth[k])})
	}
	return emit(cfg, "Endpoint growth ratios (≈1 = flat)", []string{"variant", "growth"}, growth)
}

func fig2(cfg config) error {
	rep, err := harness.MicroSweep(cfg.scale, cfg.points)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 2 — matvec runtime (ms) vs nnz, random vectors, %s", rep.Matrix)
	headers := []string{"nnz", "row-nomask-ms", "row-mask-ms", "col-nomask-ms", "col-mask-ms"}
	return emit(cfg, title, headers, microRows(rep, func(p harness.MicroPoint) harness.MicroCost { return p.MS }))
}

func table2(cfg config) error {
	rows, err := harness.Table2(cfg.scale, cfg.sources, cfg.runs, cfg.model)
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		speedup := "—"
		if r.Speedup > 0 {
			speedup = harness.F(r.Speedup) + "x"
		}
		out = append(out, []string{r.Optimization, harness.F(r.GTEPS), harness.F(r.MeanMS), speedup})
	}
	return emit(cfg, fmt.Sprintf("Table 2 — cumulative optimization impact (kron scale=%d, %d sources)", cfg.scale, cfg.sources),
		[]string{"Optimization", "GTEPS", "mean ms", "speedup"}, out)
}

func table3(cfg config) error {
	rows, err := harness.Table3(cfg.scale)
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Name, harness.I(r.Vertices), harness.I(r.Edges),
			harness.I(r.MaxDegree), harness.F(r.AvgDegree), harness.I(r.Diameter), r.Kind,
		})
	}
	return emit(cfg, fmt.Sprintf("Table 3 — dataset stand-ins (scale=%d)", cfg.scale),
		[]string{"Dataset", "Vertices", "Edges", "MaxDeg", "AvgDeg", "Diameter", "Type"}, out)
}

func fig5(cfg config) error {
	rows, err := harness.Fig5(cfg.scale, cfg.model)
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			harness.I(r.Iteration), harness.I(r.FrontierNNZ), harness.I(r.UnvisitedNNZ),
			harness.F(r.PushMS), harness.F(r.PullMS),
		})
	}
	return emit(cfg, fmt.Sprintf("Figure 5 — per-iteration frontier counts and kernel runtimes (kron scale=%d)", cfg.scale),
		[]string{"iter", "frontier", "unvisited", "push-ms", "pull-ms"}, out)
}

func fig6(cfg config) error {
	pts, err := harness.Fig6(cfg.scale, cfg.sources, cfg.model)
	if err != nil {
		return err
	}
	out := make([][]string, 0, len(pts))
	for _, p := range pts {
		out = append(out, []string{p.Mode, harness.I(p.Source), harness.I(p.Iteration), harness.I(p.NNZ), harness.F(p.MS)})
	}
	return emit(cfg, fmt.Sprintf("Figure 6 — per-iteration (size, runtime) scatter (kron scale=%d, %d sources)", cfg.scale, cfg.sources),
		[]string{"mode", "source", "iter", "nnz", "ms"}, out)
}

func table4(cfg config) error {
	rows, err := harness.Compare(cfg.scale, cfg.sources, cfg.runs, cfg.only, cfg.model)
	if err != nil {
		return err
	}
	headers := append([]string{"Dataset"}, harness.FrameworkOrder...)
	msRows := [][]string{}
	tepsRows := [][]string{}
	for _, r := range rows {
		msRow := []string{r.Dataset}
		tepsRow := []string{r.Dataset}
		for _, name := range harness.FrameworkOrder {
			msRow = append(msRow, harness.F(r.Cells[name].RuntimeMS))
			tepsRow = append(tepsRow, harness.F(r.Cells[name].MTEPS))
		}
		msRows = append(msRows, msRow)
		tepsRows = append(tepsRows, tepsRow)
	}
	if err := emit(cfg, fmt.Sprintf("Figure 7 table — runtime ms, lower is better (scale=%d, %d sources)", cfg.scale, cfg.sources), headers, msRows); err != nil {
		return err
	}
	if err := emit(cfg, "Figure 7 table — edge throughput MTEPS, higher is better", headers, tepsRows); err != nil {
		return err
	}
	gm := harness.GeomeanSpeedups(rows)
	var gmRows [][]string
	for _, name := range harness.FrameworkOrder {
		if name == "This Work" {
			continue
		}
		gmRows = append(gmRows, []string{name, harness.F(gm[name]) + "x"})
	}
	return emit(cfg, "Geomean speedup of This Work over:", []string{"framework", "speedup"}, gmRows)
}

func fig7(cfg config) error {
	rows, err := harness.Compare(cfg.scale, cfg.sources, cfg.runs, cfg.only, cfg.model)
	if err != nil {
		return err
	}
	slow := harness.Fig7(rows)
	headers := append([]string{"Dataset"}, harness.FrameworkOrder...)
	out := [][]string{}
	for _, s := range slow {
		row := []string{s.Dataset}
		for _, name := range harness.FrameworkOrder {
			row = append(row, harness.F(s.Slowdowns[name]))
		}
		out = append(out, row)
	}
	return emit(cfg, "Figure 7 chart — slowdown vs Gunrock (1.0 = Gunrock)", headers, out)
}
