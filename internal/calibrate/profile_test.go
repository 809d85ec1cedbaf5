package calibrate

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pushpull/internal/core"
)

// TestLoadLenient: every failure mode — missing file, corrupted JSON, stale
// schema version — degrades to nil with one diagnostic line, and a valid
// profile loads normally.
func TestLoadLenient(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	logf := func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}

	// Missing file.
	if p := LoadLenient(filepath.Join(dir, "nope.json"), logf); p != nil {
		t.Fatalf("missing file: got %+v, want nil", p)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "running untuned") {
		t.Fatalf("missing file not logged: %v", logged)
	}

	// Corrupted JSON.
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"version": 1, "model": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	logged = nil
	if p := LoadLenient(corrupt, logf); p != nil {
		t.Fatal("corrupted JSON: got a profile, want nil")
	}
	if len(logged) != 1 {
		t.Fatalf("corrupted JSON logged %d lines, want 1", len(logged))
	}

	// Stale schema version: valid JSON, wrong version.
	stale := filepath.Join(dir, "stale.json")
	good := NewProfile(testModel())
	if err := Save(filepath.Join(dir, "good.json"), good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "good.json"))
	if err != nil {
		t.Fatal(err)
	}
	staleData := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if staleData == string(data) {
		t.Fatal("test fixture: version field not found to rewrite")
	}
	if err := os.WriteFile(stale, []byte(staleData), 0o644); err != nil {
		t.Fatal(err)
	}
	logged = nil
	if p := LoadLenient(stale, logf); p != nil {
		t.Fatal("stale version: got a profile, want nil")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "version") {
		t.Fatalf("stale version diagnostic missing: %v", logged)
	}

	// nil logf must be safe.
	if p := LoadLenient(stale, nil); p != nil {
		t.Fatal("nil logf: got a profile, want nil")
	}

	// A valid profile loads exactly as Load would.
	p := LoadLenient(filepath.Join(dir, "good.json"), logf)
	if p == nil {
		t.Fatal("valid profile rejected")
	}
	if *p != *good {
		t.Fatalf("lenient load changed the profile:\n  wrote %+v\n  read  %+v", *good, *p)
	}
}

// TestLoadBenchmarkProfile: the benchmark's committed cost profile must keep
// loading — ppload refuses to run when ppserve drops it. It carries the
// retired "probe_bool_ns" and "stitch_ns" coefficients, which no model
// field reads any more; the eight coefficients that remain load exactly
// as written and the profile passes Validate.
func TestLoadBenchmarkProfile(t *testing.T) {
	p, err := Load("../../bench/pptune.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := core.CostModel{
		GatherNs:     4.0327960185699565,
		ProbeWordNs:  0.7137507299274315,
		ProbeDenseNs: 0,
		RowNs:        13.094444188261892,
		ScatterNs:    0,
		ClearNs:      0,
		SortNs:       1.1113766092898811,
		SetupNs:      227.06176425571974,
	}
	if p.Model != want {
		t.Fatalf("benchmark profile coefficients:\n  got  %+v\n  want %+v", p.Model, want)
	}
}

// TestLoadIgnoresRetiredCoefficient: a profile with non-zero "stitch_ns"
// and "probe_bool_ns" (coefficients earlier calibrations wrote) loads,
// with the other eight coefficients intact.
func TestLoadIgnoresRetiredCoefficient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stitch.json")
	data := `{"version": 1, "os": "linux", "arch": "amd64", "cpus": 2, "scale": 12,
	  "observations": 60, "residual_frac": 0.25,
	  "model": {"gather_ns": 2.5, "probe_bool_ns": 1.5, "probe_word_ns": 0.75,
	    "probe_dense_ns": 0.25, "row_ns": 3, "scatter_ns": 1.25, "clear_ns": 0.1,
	    "sort_ns": 2, "setup_ns": 800, "stitch_ns": 412.5}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != testModel() {
		t.Fatalf("coefficients changed on load:\n  got  %+v\n  want %+v", p.Model, testModel())
	}
}

// TestValidateRejectsNegativeMetadata: a host CPU count, calibration scale
// or observation count below zero was never measured, so Validate (and with
// it Load and Save) rejects the profile.
func TestValidateRejectsNegativeMetadata(t *testing.T) {
	for name, spoil := range map[string]func(*Profile){
		"cpus":         func(p *Profile) { p.CPUs = -1 },
		"scale":        func(p *Profile) { p.Scale = -1 },
		"observations": func(p *Profile) { p.Observations = -1 },
	} {
		p := NewProfile(testModel())
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: fresh profile: %v", name, err)
		}
		spoil(p)
		if err := p.Validate(); err == nil {
			t.Errorf("negative %s validates", name)
		}
	}
}
