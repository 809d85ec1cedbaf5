package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
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
	for _, exp := range []string{"table1", "fig2", "table2", "table3", "fig5", "fig6"} {
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

// decisionsPayload is the JSON shape written by a -json decisions run.
type decisionsPayload struct {
	Experiment string `json:"experiment"`
	Tables     []struct {
		Title string     `json:"title"`
		Rows  [][]string `json:"rows"`
	} `json:"tables"`
}

// runDecisions runs the decisions experiment at scale 8 with the given
// model (nil: unit weights only) and returns the decoded BENCH_decisions.json.
func runDecisions(t *testing.T, prof *calibrate.Profile) decisionsPayload {
	t.Helper()
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.scale = 8
	cfg.jsonDir = t.TempDir()
	if prof != nil {
		cfg.model = &prof.Model
	}
	if err := run("decisions", cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.jsonDir, "BENCH_decisions.json"))
	if err != nil {
		t.Fatal(err)
	}
	var payload decisionsPayload
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("BENCH_decisions.json is not valid JSON: %v", err)
	}
	if payload.Experiment != "decisions" {
		t.Fatalf("experiment = %q", payload.Experiment)
	}
	return payload
}

// accuracyKeys returns the graph/model keys of the accuracy summary table.
func accuracyKeys(p decisionsPayload) map[string]bool {
	keys := map[string]bool{}
	for _, tbl := range p.Tables {
		if strings.HasPrefix(tbl.Title, "Decision accuracy") {
			for _, row := range tbl.Rows {
				keys[row[0]] = true
			}
		}
	}
	return keys
}

// TestRunBenchEmitsJSON checks that an untuned decisions run writes
// BENCH_decisions.json with one detail table per graph, one row per BFS
// level, and a unit-model accuracy row per graph.
func TestRunBenchEmitsJSON(t *testing.T) {
	payload := runDecisions(t, nil)
	// The replayed BFS's depth on each scale-8 graph: the generators and
	// the source pick are deterministic, so so is the level count.
	wantLevels := map[string]int{"kron": 3, "uniform": 4}
	details := 0
	for _, tbl := range payload.Tables {
		graph, ok := strings.CutPrefix(tbl.Title, "Decision quality — ")
		if !ok {
			continue
		}
		details++
		graph = strings.Fields(graph)[0]
		if got := len(tbl.Rows); got != wantLevels[graph] {
			t.Fatalf("%s detail table has %d rows, want one per BFS level (%d)", graph, got, wantLevels[graph])
		}
		for i, row := range tbl.Rows {
			if row[0] != strconv.Itoa(i+1) {
				t.Fatalf("%s row %d is iteration %s", graph, i, row[0])
			}
			if dir := row[4]; dir != "push" && dir != "pull" {
				t.Fatalf("unit-dir unpopulated: %v", row)
			}
		}
	}
	if details != len(wantLevels) {
		t.Fatalf("%d detail tables, want %d", details, len(wantLevels))
	}
	accuracy := accuracyKeys(payload)
	for _, key := range []string{"kron/unit", "uniform/unit"} {
		if !accuracy[key] {
			t.Fatalf("accuracy summary missing %q: %v", key, accuracy)
		}
	}
}

// TestRunCalibrateThenTunedBench drives the calibrate → -tune → decisions
// workflow through the CLI layer: calibrate must write a loadable profile,
// and a decisions run with the loaded model must grade it next to the unit
// weights, with cal-dir populated on every row.
func TestRunCalibrateThenTunedBench(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "PPTUNE_test.json")
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

	payload := runDecisions(t, prof)
	for _, tbl := range payload.Tables {
		if strings.HasPrefix(tbl.Title, "Decision quality") {
			for _, row := range tbl.Rows {
				if dir := row[6]; dir != "push" && dir != "pull" {
					t.Fatalf("tuned run left cal-dir unpopulated: %v", row)
				}
			}
		}
	}
	accuracy := accuracyKeys(payload)
	for _, key := range []string{"kron/unit", "kron/calibrated", "uniform/unit", "uniform/calibrated"} {
		if !accuracy[key] {
			t.Fatalf("accuracy summary missing %q: %v", key, accuracy)
		}
	}
}
