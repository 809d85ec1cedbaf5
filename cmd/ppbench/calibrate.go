package main

import (
	"fmt"

	"pushpull/internal/calibrate"
	"pushpull/internal/core"
	"pushpull/internal/harness"
)

// calibrateExperiment fits the host's cost-model coefficients on replayed
// BFS levels and writes the PPTUNE profile the other experiments load with
// -tune. The fitted per-term nanoseconds are also emitted as a table (and
// into BENCH_calibrate.json under -json).
func calibrateExperiment(cfg config) error {
	scale := cfg.scale
	if scale > 12 {
		// Calibration only needs the kernels past cache effects; the fit
		// quality saturates well before benchmark-sized graphs.
		scale = 12
	}
	prof, err := calibrate.Run(calibrate.Options{Scale: scale, Quick: cfg.quick})
	if err != nil {
		return err
	}
	path := cfg.tunePath
	if path == "" {
		path = calibrate.DefaultName()
	}
	if err := calibrate.Save(path, prof); err != nil {
		return err
	}

	mode := "full"
	if cfg.quick {
		mode = "quick"
	}
	title := fmt.Sprintf("Calibrated cost model — %s/%s, scale=%d (%s, %d observations, rms residual %.2f) → %s",
		prof.OS, prof.Arch, prof.Scale, mode, prof.Observations, prof.ResidualFrac, path)
	rows := make([][]string, 0, core.NumTerms)
	for t, term := range core.Terms {
		rows = append(rows, []string{term.Unit, harness.F(*prof.Model.Coef(core.Term(t)))})
	}
	return emit(cfg, title, []string{"term", "ns"}, rows)
}
