package calibrate

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pushpull/internal/core"
)

func testModel() core.CostModel {
	return core.CostModel{
		GatherNs: 2.5, ProbeWordNs: 0.75, ProbeDenseNs: 0.25,
		RowNs: 3, ScatterNs: 1.25, ClearNs: 0.1, SortNs: 2, SetupNs: 800,
	}
}

func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, DefaultName())
	p := NewProfile(testModel())
	p.Scale = 12
	p.Observations = 48
	p.ResidualFrac = 0.17
	if err := Save(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("round trip changed the profile:\n  wrote %+v\n  read  %+v", *p, *got)
	}
	if !strings.HasPrefix(filepath.Base(path), "PPTUNE_") {
		t.Fatalf("default name not host-keyed: %s", path)
	}
}

func TestLoadRejectsBadProfiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, content string
	}{
		{"malformed.json", `{"version": 1, "model": {`},
		{"wrong-version.json", `{"version": 99, "model": {"row_ns": 1, "gather_ns": 1}}`},
		{"negative.json", `{"version": 1, "model": {"row_ns": -3, "gather_ns": 1}}`},
		{"all-zero.json", `{"version": 1, "model": {}}`},
		{"nan-residual.json", `{"version": 1, "residual_frac": 1e999, "model": {"row_ns": 1}}`},
	}
	for _, tc := range cases {
		if _, err := Load(write(tc.name, tc.content)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Save refuses to persist an invalid profile at all.
	bad := NewProfile(core.CostModel{RowNs: math.NaN()})
	if err := Save(filepath.Join(dir, "nan.json"), bad); err == nil {
		t.Error("Save wrote a NaN model")
	}
}

// TestFitRecoversKnownModel builds synthetic observations from a known
// coefficient set (no timing involved) and checks the least-squares fit
// recovers it: the fit machinery itself must be exact on noiseless data
// and close under multiplicative noise.
func TestFitRecoversKnownModel(t *testing.T) {
	want := testModel()
	rng := rand.New(rand.NewSource(3))
	synth := func(noise float64) []Observation {
		var obs []Observation
		// Two degree regimes at two sizes and several densities (the size
		// split is what makes the O(n) clear term separable from the per-op
		// setup constant), one row per kernel variant and probe kind.
		for _, regime := range []struct{ d, n float64 }{{6, 2048}, {16, 4096}} {
			d, n := regime.d, regime.n
			for _, frac := range []float64{1.0 / 128, 1.0 / 32, 1.0 / 8, 1.0 / 4, 1.0 / 2} {
				k := frac * n
				edges := k * d
				merge := math.Log2(k + 2)
				allow := n - k
				for _, w := range []core.Work{
					{core.TermSetup: 1, core.TermRow: n, core.TermProbeDense: n * d},
					{core.TermSetup: 1, core.TermRow: allow, core.TermProbeWord: allow * d},
					{core.TermSetup: 1, core.TermGather: edges, core.TermSort: edges * merge},
					{core.TermSetup: 1, core.TermGather: edges, core.TermScatter: edges, core.TermClear: n},
				} {
					ns := want.Price(w) * (1 + noise*(2*rng.Float64()-1))
					obs = append(obs, Observation{Work: w, Ns: ns})
				}
			}
		}
		return obs
	}

	got, residual := Fit(synth(0))
	checkClose := func(name string, g, w, tol float64) {
		t.Helper()
		if w == 0 && g == 0 {
			return
		}
		if math.Abs(g-w) > tol*w {
			t.Errorf("%s: fitted %g, want %g", name, g, w)
		}
	}
	for _, c := range []struct {
		name string
		g, w float64
	}{
		{"gather", got.GatherNs, want.GatherNs},
		{"probe-word", got.ProbeWordNs, want.ProbeWordNs},
		{"probe-dense", got.ProbeDenseNs, want.ProbeDenseNs},
		{"row", got.RowNs, want.RowNs},
		{"scatter", got.ScatterNs, want.ScatterNs},
		{"clear", got.ClearNs, want.ClearNs},
		{"sort", got.SortNs, want.SortNs},
		{"setup", got.SetupNs, want.SetupNs},
	} {
		checkClose(c.name, c.g, c.w, 0.02)
	}
	// The ridge term biases the solution a hair off the exact solve, so
	// "zero" residual means "well under a percent".
	if residual > 1e-2 {
		t.Errorf("noiseless fit residual %g, want ~0", residual)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}

	// 10% multiplicative noise: coefficients stay non-negative and the
	// dominant ones stay in the neighbourhood.
	noisy, residual := Fit(synth(0.10))
	if err := noisy.Validate(); err != nil {
		t.Fatalf("noisy fit invalid: %v", err)
	}
	// Least squares minimizes absolute error, so the *relative* residual
	// is dominated by the smallest observations; it just has to stay the
	// same order as the injected noise.
	if residual > 0.5 {
		t.Errorf("noisy fit residual %g implausibly large", residual)
	}
	// Gather is only weakly separated from sort/scatter (they share the
	// same observations), so it gets the widest band.
	checkClose("noisy gather", noisy.GatherNs, want.GatherNs, 1.0)
	checkClose("noisy row", noisy.RowNs, want.RowNs, 0.5)
}

// TestFitClampsUnidentifiedTerms feeds observations where one term's
// weight is effectively negative in the unconstrained solution and checks
// the active-set clamp zeroes it instead.
func TestFitClampsUnidentifiedTerms(t *testing.T) {
	// Construct pull observations where ns *decreases* with the probe
	// count at fixed rows — an unconstrained fit would price probes
	// negative.
	obs := []Observation{
		{Work: core.Work{core.TermRow: 1000, core.TermProbeWord: 4000}, Ns: 5000},
		{Work: core.Work{core.TermRow: 1000, core.TermProbeWord: 16000}, Ns: 4000},
		{Work: core.Work{core.TermRow: 2000, core.TermProbeWord: 8000}, Ns: 10000},
	}
	m, _ := Fit(obs)
	if m.ProbeWordNs < 0 || m.RowNs < 0 {
		t.Fatalf("negative coefficient escaped the clamp: %+v", m)
	}
	if m.ProbeWordNs != 0 {
		t.Fatalf("inverted probe term should clamp to 0, got %g", m.ProbeWordNs)
	}
	if m.RowNs <= 0 {
		t.Fatalf("row term should carry the cost, got %g", m.RowNs)
	}
	// Degenerate inputs do not panic and produce the zero model.
	if m, _ := Fit(nil); m.Calibrated() {
		t.Fatal("empty observation set produced a calibrated model")
	}
}

// TestCollectAndRunSmoke runs the level replay at a tiny scale: the
// observations must come from all four graphs and cover every kernel
// variant the fit prices — a pull over a bitset input, a sorted push and a
// scatter push — each with the counts of its variant and a measured time,
// and the fitted profile must validate and round-trip.
func TestCollectAndRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmarks in -short")
	}
	opt := Options{Scale: 8, Quick: true}
	obs, err := Collect(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) < 4*int(core.NumTerms) {
		t.Fatalf("got %d observations, too few to fit %d terms", len(obs), core.NumTerms)
	}
	seen := map[string]bool{}
	for _, o := range obs {
		if o.Ns <= 0 || o.Work[core.TermSetup] != 1 {
			t.Fatalf("unmeasured or uncounted observation: %+v", o)
		}
		graph, dir, _ := strings.Cut(o.Bench, "/")
		w := o.Work
		var variant string
		switch {
		case dir == "pull" && w[core.TermRow] > 0 && w[core.TermProbeWord] > 0 && w[core.TermProbeDense] == 0 && w[core.TermGather] == 0:
			variant = "pull"
		case dir == "push" && w[core.TermGather] > 0 && w[core.TermSort] > 0 && w[core.TermScatter] == 0 && w[core.TermRow] == 0:
			variant = "push-sort"
		case dir == "push" && w[core.TermGather] > 0 && w[core.TermScatter] == w[core.TermGather] && w[core.TermClear] > 0 && w[core.TermSort] == 0:
			variant = "push-scatter"
		default:
			t.Fatalf("observation's counts describe no kernel of its direction: %+v", o)
		}
		seen[graph], seen[variant] = true, true
	}
	for _, name := range []string{"kron", "uniform", "grid", "rgg", "pull", "push-sort", "push-scatter"} {
		if !seen[name] {
			t.Fatalf("missing %q in observations", name)
		}
	}

	prof, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	if prof.Observations != len(obs) || prof.Scale != 8 {
		t.Fatalf("profile metadata wrong: %+v (collected %d observations)", prof, len(obs))
	}
	path := filepath.Join(t.TempDir(), DefaultName())
	if err := Save(path, prof); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}
