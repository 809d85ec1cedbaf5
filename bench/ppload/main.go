// Command ppload is the repository's benchmark: it launches the real
// ppserve binary as a child, drives it over loopback HTTP with one of four
// named workloads, checks every answer against an independent oracle and
// prints the end-to-end metrics; a separate traced pass times calls into
// each layer's public functions from outside and reconciles their sum with
// the round trip. See bench/README.md.
//
//	ppload run   <workload> [--seed N]   end-to-end metrics
//	ppload trace <workload> [--seed N]   per-layer metrics
//	ppload aa    [workload] [--seed N]   two interleaved sets of runs of the same code
//
// The driver's form, `--workload W --seed N --seconds S --trace 0|1`, is
// run (0) or trace (1). The last line of standard output is one JSON
// object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	args := os.Args[1:]
	mode := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("ppload", flag.ExitOnError)
	workloadName := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed for the query roots")
	seconds := fs.Int("seconds", 0, "measured window in seconds; the driver passes BENCHMARK.json's run_seconds, which is also the default")
	trace := fs.Int("trace", 0, "1 = traced pass (per-layer metrics)")
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		*workloadName, args = args[0], args[1:]
	}
	_ = fs.Parse(args) // ExitOnError
	if mode == "" {
		mode = "run"
		if *trace == 1 {
			mode = "trace"
		}
	}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = man.RunSeconds
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds %d: need at least 1", *seconds))
	}

	// A killed benchmark must not leave its server behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killAllChildren()
		os.Exit(130)
	}()

	window := time.Duration(*seconds) * time.Second
	var rep *report
	switch mode {
	case "run", "trace":
		var w *workload
		if w, err = workloadByName(*workloadName); err != nil {
			break
		}
		want := man.EndToEnd
		if mode == "run" {
			rep, err = runUntraced(w, *seed, window)
		} else {
			rep, err = runTraced(w, *seed, window)
			want = man.PerLayer
		}
		if err == nil {
			err = checkNames(mode, want, rep.Metrics)
		}
	case "aa":
		err = runAA(man, *workloadName, *seed)
	default:
		err = fmt.Errorf("unknown mode %q (run, trace, aa)", mode)
	}
	if err != nil {
		fatal(err)
	}
	if rep != nil {
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	killAllChildren()
	fmt.Fprintln(os.Stderr, "ppload:", err)
	os.Exit(1)
}

// checkNames holds a pass to its contract: it reports exactly the metrics
// BENCHMARK.json lists for it, so the two cannot drift apart unnoticed.
func checkNames(mode string, want []listedMetric, got map[string]metric) error {
	var problems []string
	for _, w := range want {
		if m, ok := got[w.Name]; !ok {
			problems = append(problems, "missing "+w.Name)
		} else if m.Unit != w.Unit {
			problems = append(problems, fmt.Sprintf("%s in %s, listed in %s", w.Name, m.Unit, w.Unit))
		}
	}
	if len(got) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics reported, %d listed", len(got), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s pass and BENCHMARK.json disagree: %s", mode, strings.Join(problems, "; "))
	}
	return nil
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// selfCPUSeconds is the generator's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // the figure is informational; a zero delta shows as zero
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
