package main

import (
	"os"
	"path/filepath"
	"testing"

	"pushpull/generate"
	"pushpull/generate/mmio"
)

func TestRunGeneratedDatasetAllFrameworks(t *testing.T) {
	if err := run("", "kron", 9, 0, 1, "all", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceAndAutoSource(t *testing.T) {
	if err := run("", "kron", 9, -1, 1, "thiswork", true); err != nil {
		t.Fatal(err)
	}
	if err := run("", "roadnet", 9, 0, 3, "gunrock", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	g, err := generate.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := mmio.WritePatternFile(path, g); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "", 0, 0, 1, "ligra", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "nope", 9, 0, 1, "thiswork", false); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run("", "kron", 9, 0, 1, "warp9", false); err == nil {
		t.Fatal("unknown framework accepted")
	}
	if err := run("/does/not/exist.mtx", "", 0, 0, 1, "thiswork", false); err == nil {
		t.Fatal("missing file accepted")
	}
	edgeless := filepath.Join(t.TempDir(), "edgeless.mtx")
	if err := os.WriteFile(edgeless, []byte("%%MatrixMarket matrix coordinate pattern general\n4 4 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Roots that used to panic: past the last vertex (in BFS for thiswork,
	// in the comparators' unchecked indexing), below -1, and -sources on a
	// graph with no vertex to start from (a division by zero roots).
	for _, c := range []struct {
		name, file, framework string
		source, nsources      int
	}{
		{"source past n, thiswork", "", "thiswork", 1 << 9, 1},
		{"source past n, comparator", "", "gunrock", 1 << 9, 1},
		{"source below -1", "", "all", -2, 1},
		{"sampled roots on an edgeless graph", edgeless, "thiswork", 0, 3},
	} {
		if err := run(c.file, "kron", 9, c.source, c.nsources, c.framework, false); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
