package algorithms_test

import (
	"strconv"
	"strings"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

// dirSeq renders a traversal's per-level directions as one letter each:
// 'u' for a push level, 'L' for a pull level.
func dirSeq(stats []algorithms.IterStats) string {
	var b strings.Builder
	for _, s := range stats {
		if s.Direction == graphblas.PullDirection {
			b.WriteByte('L')
		} else {
			b.WriteByte('u')
		}
	}
	return b.String()
}

// TestUnitModelDirectionSequencesPinned pins the unit-model planner's
// per-level push/pull sequence for BFS (default, the two planned ablations
// and the legacy ratio rule) on kron, grid and uniform graphs, and for SSSP
// on a weighted kron. The sequences are a function of the planner inputs
// alone — frontier degree sums, average degree, mask density, hysteresis —
// so any change to how a level is planned must reproduce them exactly.
func TestUnitModelDirectionSequencesPinned(t *testing.T) {
	kron, err := generate.RMAT(generate.RMATConfig{Scale: 10, EdgeFactor: 16, Undirected: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := generate.Grid2D(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := generate.ErdosRenyi(1024, 8.0/1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		a    *graphblas.Matrix[bool]
	}{{"kron", kron}, {"grid", grid}, {"uniform", uniform}}
	variants := []struct {
		name string
		opt  algorithms.BFSOptions
	}{
		{"default", algorithms.BFSOptions{}},
		{"no-reuse", algorithms.BFSOptions{DisableOperandReuse: true}},
		{"no-mask", algorithms.BFSOptions{DisableMasking: true}},
		{"switchpoint", algorithms.BFSOptions{SwitchPoint: 0.01}},
	}
	want := map[string]string{
		"kron/default/0":        "uLLu",
		"kron/default/7":        "uuLL",
		"kron/no-reuse/0":       "uLLu",
		"kron/no-reuse/7":       "uuLL",
		"kron/no-mask/0":        "uLuu",
		"kron/no-mask/7":        "uuLu",
		"kron/switchpoint/0":    "uLLu",
		"kron/switchpoint/7":    "uLLL",
		"grid/default/0":        "uuuuuuuuuuuuuuuuuuuuuuu",
		"grid/default/7":        "uuuuuuuuuuuLLLLLLLL",
		"grid/no-reuse/0":       "uuuuuuuuuuuuuuuuuuuuuuu",
		"grid/no-reuse/7":       "uuuuuuuuuuuLLLLLLLL",
		"grid/no-mask/0":        "uuuuuuuuuuuuuuuuuuuuuuu",
		"grid/no-mask/7":        "uuuuuuuuuuuuuuuuuuu",
		"grid/switchpoint/0":    "uLLLLLLLLLLLLLLLLLLLLLu",
		"grid/switchpoint/7":    "uLLLLLLLLLLLLLLLLLu",
		"uniform/default/0":     "uuuLLL",
		"uniform/default/7":     "uuuLLL",
		"uniform/no-reuse/0":    "uuuLLL",
		"uniform/no-reuse/7":    "uuuLLL",
		"uniform/no-mask/0":     "uuuuLu",
		"uniform/no-mask/7":     "uuuLuu",
		"uniform/switchpoint/0": "uuLLLL",
		"uniform/switchpoint/7": "uLLLLu",
		"sssp-kron/0":           "uLLLLL",
		"sssp-kron/7":           "uuLLLL",
	}
	got := map[string]string{}
	for _, g := range graphs {
		for _, v := range variants {
			for _, src := range []int{0, 7} {
				var stats []algorithms.IterStats
				opt := v.opt
				opt.Trace = func(s algorithms.IterStats) { stats = append(stats, s) }
				if _, err := algorithms.BFS(g.a, src, opt); err != nil {
					t.Fatal(err)
				}
				got[g.name+"/"+v.name+"/"+strconv.Itoa(src)] = dirSeq(stats)
			}
		}
	}
	wk, err := generate.WeightedCopy(kron, 1, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 7} {
		var stats []algorithms.IterStats
		if _, err := algorithms.SSSP(wk, src, algorithms.SSSPOptions{Trace: func(s algorithms.IterStats) { stats = append(stats, s) }}); err != nil {
			t.Fatal(err)
		}
		got["sssp-kron/"+strconv.Itoa(src)] = dirSeq(stats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d traversals ran, %d pinned", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: directions %s, pinned %s", k, got[k], w)
		}
	}
}
