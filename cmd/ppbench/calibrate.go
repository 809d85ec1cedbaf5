package main

import (
	"fmt"

	"pushpull/internal/calibrate"
	"pushpull/internal/harness"
)

// calibrateExperiment fits the host's cost-model coefficients from the
// microbenchmark suite and writes the PPTUNE profile the other
// experiments load with -tune. The fitted per-term nanoseconds are also
// emitted as a table (and into BENCH_calibrate.json under -json).
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

	m := prof.Model
	mode := "full"
	if cfg.quick {
		mode = "quick"
	}
	title := fmt.Sprintf("Calibrated cost model — %s/%s, scale=%d (%s, %d observations, rms residual %.2f) → %s",
		prof.OS, prof.Arch, prof.Scale, mode, prof.Observations, prof.ResidualFrac, path)
	return emit(cfg, title,
		[]string{"term", "ns"},
		[][]string{
			{"setup (per op)", harness.F(m.SetupNs)},
			{"scanned row (pull)", harness.F(m.RowNs)},
			{"probed edge, bitmap input", harness.F(m.ProbeBoolNs)},
			{"probed edge, bitset input", harness.F(m.ProbeWordNs)},
			{"probed edge, dense input", harness.F(m.ProbeDenseNs)},
			{"gathered edge (push)", harness.F(m.GatherNs)},
			{"sorted pair unit (push, ×log₂nnz)", harness.F(m.SortNs)},
			{"scattered output (push bitmap-out)", harness.F(m.ScatterNs)},
			{"cleared output slot (push bitmap-out)", harness.F(m.ClearNs)},
		})
}
