package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// manifest is the part of BENCHMARK.json ppload reads: a pass reports
// exactly the metrics listed there, and the A/A run judges by the bounds
// the driver will judge by.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end_to_end only
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &man, nil
}

// exactCounts are the per-layer metrics that are counts of deterministic
// work: two traced passes of the same code and seed must agree on them to
// the last digit.
var exactCounts = []string{
	"core.pull_edges_probed.peak",
	"algorithms.bfs_levels.kron",
	"algorithms.bfs_levels.road",
	"serve.admitted_frac",
	"serve.in_budget_frac",
}

// aaRuns is how many runs each of the two sets makes per workload: the
// driver's own number.
const aaRuns = 10

// runSelf runs one benchmark pass as its own process, as the driver does,
// and returns the parsed last line and, for the end-to-end pass, the
// ungated figures it printed beside it.
func runSelf(mode, workload string, seed int64) (*report, map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, mode, workload, "--seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// Its own process group, stopped with SIGTERM so that it stops its
	// server in turn.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	track(cmd.Process.Pid, syscall.SIGTERM)
	err = cmd.Wait()
	untrack(cmd.Process.Pid)
	// Every pass's own report is kept beside the traces.
	logPath := filepath.Join("bench", "out", fmt.Sprintf("aa-%s-%s-seed%d.txt", mode, workload, seed))
	if mkErr := os.MkdirAll(filepath.Dir(logPath), 0o755); mkErr == nil {
		_ = os.WriteFile(logPath, stdout.Bytes(), 0o644) // a convenience; the table does not depend on it
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s --seed %d: %w\n%s", mode, workload, seed, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, nil, fmt.Errorf("%s %s --seed %d: last line is not a report: %w", mode, workload, seed, err)
	}
	var ungated map[string]metric
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, ungatedPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &ungated); err != nil {
				return nil, nil, fmt.Errorf("%s %s --seed %d: ungated line: %w", mode, workload, seed, err)
			}
		}
	}
	return &rep, ungated, nil
}

// spreadAndGap judges one metric's two sets of values the way the driver
// does: each set's distance between quartiles as a share of its median,
// and how much worse the worse set's median is than the other's.
func spreadAndGap(a, b []float64, better string) (aq, bq [3]float64, aspread, bspread, gap float64) {
	aq[0], aq[1], aq[2] = quartiles(a)
	bq[0], bq[1], bq[2] = quartiles(b)
	aspread, bspread = (aq[2]-aq[0])/aq[1], (bq[2]-bq[0])/bq[1]
	gap = math.Abs(bq[1]-aq[1]) / math.Min(aq[1], bq[1])
	if better == "higher" {
		gap = math.Abs(bq[1]-aq[1]) / math.Max(aq[1], bq[1])
	}
	return
}

// runAA runs the suite as two interleaved sets of runs of the same code
// (A B A B ...), each run with its own seed as the driver does, and holds
// the end-to-end metrics to the driver's two rules: within a set, the
// distance between the quartiles of every metric but setup_s (the driver
// exempts it) stays within the metric's bound as a share of the median;
// between the sets, no median is worse than the other set's by more than
// the bound. The window's timings are shown the same way without a
// verdict: they are not gated because, on a shared host, they fail here.
func runAA(man *manifest, only string, seed int64) error {
	var failures []string
	for _, wl := range man.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		var gated, ungated [2]map[string][]float64
		for set := range gated {
			gated[set], ungated[set] = map[string][]float64{}, map[string][]float64{}
		}
		attempted, failed := 0, 0
		for i := 0; i < aaRuns; i++ {
			for set := 0; set < 2; set++ {
				s := seed + int64(2*i+set)
				rep, un, err := runSelf("run", wl.Name, s)
				if err != nil {
					return err
				}
				attempted, failed = attempted+rep.Attempted, failed+rep.Failed
				for name, m := range rep.Metrics {
					gated[set][name] = append(gated[set][name], m.Value)
				}
				for name, m := range un {
					ungated[set][name] = append(ungated[set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: %s run %d/%d of set %c (seed %d) done\n", wl.Name, i+1, aaRuns, 'A'+set, s)
			}
		}
		fmt.Printf("\n%s: %d runs per set, %d operations attempted, %d failed\n", wl.Name, aaRuns, attempted, failed)
		const row = "  %-32s %-5s %12.4f %12.4f %12.4f %7.2f%% | %12.4f %12.4f %12.4f %7.2f%% | %7.2f%%  %s\n"
		fmt.Printf("  %-32s %-5s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "A spread", "B q1", "B median", "B q3", "B spread", "gap", "verdict")
		if failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d failed operations", wl.Name, failed))
		}
		for _, m := range man.EndToEnd {
			aq, bq, aspread, bspread, gap := spreadAndGap(gated[0][m.Name], gated[1][m.Name], m.Better)
			spread := math.Max(aspread, bspread)
			spreadCounts := m.Name != "setup_s"
			verdict := fmt.Sprintf("ok, bound %.0f%%", m.Bound*100)
			switch {
			case gap > m.Bound:
				verdict = fmt.Sprintf("GAP OVER BOUND %.0f%%", m.Bound*100)
			case spreadCounts && spread > m.Bound:
				verdict = fmt.Sprintf("SPREAD OVER BOUND %.0f%%", m.Bound*100)
			case spreadCounts && spread > m.Bound/3:
				verdict += " (spread over a third of it)"
			}
			if strings.Contains(verdict, "OVER") {
				failures = append(failures, fmt.Sprintf("%s/%s: %s", wl.Name, m.Name, verdict))
			}
			fmt.Printf(row, m.Name, m.Unit, aq[0], aq[1], aq[2], aspread*100, bq[0], bq[1], bq[2], bspread*100, gap*100, verdict)
		}
		for _, m := range man.PerLayer {
			if len(ungated[0][m.Name]) == 0 {
				continue
			}
			aq, bq, aspread, bspread, gap := spreadAndGap(ungated[0][m.Name], ungated[1][m.Name], m.Better)
			fmt.Printf(row, m.Name, m.Unit, aq[0], aq[1], aq[2], aspread*100, bq[0], bq[1], bq[2], bspread*100, gap*100, "not gated")
		}

		// Counts of deterministic work must repeat exactly.
		var traced [2]*report
		for set := range traced {
			var err error
			if traced[set], _, err = runSelf("trace", wl.Name, seed); err != nil {
				return err
			}
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			verdict := "identical"
			if a != b {
				verdict = "DIFFERS"
				failures = append(failures, fmt.Sprintf("%s/%s: %v vs %v", wl.Name, name, a, b))
			}
			fmt.Printf("  # %-32s %v / %v  %s\n", name, a, b, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("A/A failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("\nA/A passed: every gated spread and every gated gap is within its bound")
	return nil
}
