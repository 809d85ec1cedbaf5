package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pushpull/internal/calibrate"
)

// End-to-end CLI driver tests at a tiny scale: every experiment must
// produce non-empty, well-formed output.

func tinyConfig(buf *bytes.Buffer) config {
	return config{scale: 9, sources: 1, runs: 1, points: 3, out: buf}
}

func TestRunAllExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "fig2", "table2", "table3", "fig5", "fig6", "ablation"} {
		var buf bytes.Buffer
		cfg := tinyConfig(&buf)
		if err := run(exp, cfg); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", exp)
		}
	}
}

func TestRunComparisonSubset(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.only = []string{"kron"}
	if err := run("table4", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"SuiteSparse", "CuSha", "Baseline", "Ligra", "Gunrock", "This Work"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %s in:\n%s", col, out)
		}
	}
	buf.Reset()
	if err := run("fig7", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slowdown") {
		t.Fatalf("fig7 output:\n%s", buf.String())
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.csv = true
	if err := run("table2", cfg); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") {
		t.Fatalf("csv header missing commas: %q", first)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run("nope", tinyConfig(&buf)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBenchEmitsJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.scale = 8
	cfg.jsonDir = t.TempDir()
	if err := run("bench", cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.jsonDir, "BENCH_bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Experiment string `json:"experiment"`
		Tables     []struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("BENCH_bench.json is not valid JSON: %v", err)
	}
	// Bench table, footprint table, direction trace, one decision-quality
	// detail table per graph (kron + uniform) and the accuracy summary.
	if payload.Experiment != "bench" || len(payload.Tables) != 6 {
		t.Fatalf("unexpected payload: experiment=%q tables=%d", payload.Experiment, len(payload.Tables))
	}
	if got := payload.Tables[0].Headers; len(got) != 4 || got[1] != "ns/op" || got[2] != "B/op" {
		t.Fatalf("bench table headers = %v", got)
	}
	// The bitset rows must be present so BENCH_bench.json gates the
	// word-packed paths.
	seen := map[string]bool{}
	for _, row := range payload.Tables[0].Rows {
		seen[row[0]] = true
	}
	for _, name := range []string{"row-mask-bitset-scmp", "col-mask-bitset", "ewise-bool-bitset", "apply-bool-bitset"} {
		if !seen[name] {
			t.Fatalf("bench table is missing the %q row", name)
		}
	}
	// The footprint table records the ≥4× (here 8×) mask shrink.
	if got := payload.Tables[1].Title; !strings.Contains(got, "footprint") {
		t.Fatalf("second table = %q, want the mask footprint table", got)
	}
	if len(payload.Tables[2].Rows) == 0 {
		t.Fatal("direction trace is empty")
	}
	// The trace must carry the planner's evidence: direction and format
	// columns populated on every row.
	for _, row := range payload.Tables[2].Rows {
		if row[1] != "push" && row[1] != "pull" {
			t.Fatalf("bad direction %q in trace", row[1])
		}
		if row[3] != "sparse" && row[3] != "bitmap" && row[3] != "bitset" && row[3] != "dense" {
			t.Fatalf("bad format %q in trace", row[3])
		}
	}
}

func TestRunJSONForTableExperiments(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.jsonDir = t.TempDir()
	if err := run("table2", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cfg.jsonDir, "BENCH_table2.json")); err != nil {
		t.Fatalf("table experiment did not write JSON: %v", err)
	}
}

// TestRunCalibrateThenTunedBench drives the whole calibrate → -tune
// workflow through the CLI layer: the calibrate experiment must write a
// loadable profile, and a bench run with the loaded model must emit
// calibrated decision rows (cal-dir populated, accuracy rows present for
// both models).
func TestRunCalibrateThenTunedBench(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "PPTUNE_test.json")
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.scale = 8
	cfg.quick = true
	cfg.tunePath = profile
	if err := run("calibrate", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Calibrated cost model") {
		t.Fatalf("calibrate output:\n%s", buf.String())
	}
	prof, err := calibrate.Load(profile)
	if err != nil {
		t.Fatalf("calibrate experiment wrote an unloadable profile: %v", err)
	}

	buf.Reset()
	cfg = tinyConfig(&buf)
	cfg.scale = 8
	cfg.jsonDir = t.TempDir()
	cfg.model = &prof.Model
	if err := run("bench", cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.jsonDir, "BENCH_bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Tables []struct {
			Title string     `json:"title"`
			Rows  [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	var accuracy map[string]bool
	for _, tbl := range payload.Tables {
		if strings.HasPrefix(tbl.Title, "Decision accuracy") {
			accuracy = map[string]bool{}
			for _, row := range tbl.Rows {
				accuracy[row[0]] = true
			}
		}
		if strings.HasPrefix(tbl.Title, "Decision quality") {
			for _, row := range tbl.Rows {
				if dir := row[6]; dir != "push" && dir != "pull" {
					t.Fatalf("tuned run left cal-dir unpopulated: %v", row)
				}
			}
		}
	}
	for _, key := range []string{"kron/unit", "kron/calibrated", "uniform/unit", "uniform/calibrated"} {
		if !accuracy[key] {
			t.Fatalf("accuracy summary missing %q: %v", key, accuracy)
		}
	}
}
