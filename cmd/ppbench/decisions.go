package main

import (
	"fmt"

	"pushpull/internal/harness"
)

// decisionsExperiment replays a small-scale BFS per graph with *both*
// kernels measured at every level and reports how often each cost model
// scheduled the measured-faster one — the planner's accuracy. Under -tune
// the calibrated model, corrected per run as served BFS is, is graded next
// to the unit RAM weights.
func decisionsExperiment(cfg config) error {
	scale := cfg.scale
	if scale > 12 {
		// Both kernels run at every level; keep the replay small.
		scale = 12
	}
	reports, err := harness.DecisionQuality(scale, cfg.model)
	if err != nil {
		return err
	}
	summary := make([][]string, 0, 2*len(reports))
	for _, rep := range reports {
		var detail [][]string
		for _, r := range rep.Rows {
			calDir, calGood := "—", "—"
			if cfg.model != nil {
				calDir, calGood = r.CalDir.String(), boolMark(r.CalGood)
			}
			detail = append(detail, []string{
				harness.I(r.Iteration), harness.I(r.FrontierNNZ),
				harness.F(r.PushMS), harness.F(r.PullMS),
				r.UnitDir.String(), boolMark(r.UnitGood), calDir, calGood,
			})
		}
		if err := emit(cfg, fmt.Sprintf("Decision quality — %s (scale=%d, both kernels measured per iteration)", rep.Graph, scale),
			[]string{"iter", "frontier", "push-ms", "pull-ms", "unit-dir", "unit-good", "cal-dir", "cal-good"}, detail); err != nil {
			return err
		}
		summary = append(summary, []string{rep.Graph + "/unit", harness.F(rep.UnitAccuracy)})
		if cfg.model != nil {
			summary = append(summary, []string{rep.Graph + "/calibrated", harness.F(rep.CalAccuracy)})
		}
	}
	return emit(cfg, "Decision accuracy — fraction of iterations scheduled on the measured-faster kernel",
		[]string{"graph/model", "accuracy"}, summary)
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
