package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/harness"
	"pushpull/internal/serve"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// prepared is the generator's side of a run: the graphs it built for its
// oracle, the seeded root pools and the precomputed answers.
type prepared struct {
	mats     map[string]*graphblas.Matrix[bool]
	buildS   map[string]float64 // seconds per graph build
	pools    map[string][]int
	verifier *verifier
}

// prepare builds the named graphs through the loader ppserve uses, draws
// the root pools from the seed and precomputes the oracle's answers for
// the workload's streams.
func prepare(w *workload, seed int64, graphs []string) (*prepared, error) {
	p := &prepared{
		mats:     make(map[string]*graphblas.Matrix[bool]),
		buildS:   make(map[string]float64),
		pools:    make(map[string][]int),
		verifier: newVerifier(),
	}
	adj := make(map[string]*adjacency)
	for _, name := range graphs {
		g := graphByName(name)
		spec, err := harness.ParseGraphSpec(g.name+"="+g.spec, g.scale)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		m, err := spec.Load()
		if err != nil {
			return nil, err
		}
		p.buildS[name] = time.Since(t0).Seconds()
		p.mats[name] = m
		adj[name] = adjacencyOf(m)
		_, giant := components(adj[name])
		p.pools[name] = pickSources(giant, g.pool, seed)
	}
	for _, st := range w.streams() {
		var weighted *adjacency
		if st.algo == "sssp" {
			var err error
			if weighted, err = weightedAdjacency(p.mats[st.graph]); err != nil {
				return nil, err
			}
		}
		if err := p.verifier.addStream(st, adj[st.graph], weighted, p.pools[st.graph]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (w *workload) graphs() []string {
	var out []string
	seen := map[string]bool{}
	for _, st := range w.streams() {
		if !seen[st.graph] {
			seen[st.graph] = true
			out = append(out, st.graph)
		}
	}
	return out
}

// deploy starts the child, waits for readiness and warms it up. The
// returned duration is setup_s: child exec to end of warm-up.
func deploy(bin string, client *http.Client, p *prepared, seed int64) (*child, time.Duration, error) {
	c, err := startChild(bin, childArgs())
	if err != nil {
		return nil, 0, err
	}
	if err := c.waitReady(client); err != nil {
		c.stop()
		return nil, 0, err
	}
	if err := warmUp(client, c.base, p.pools, p.verifier, seed); err != nil {
		c.stop()
		return nil, 0, c.fail("%v", err)
	}
	return c, time.Since(c.started), nil
}

// scrape reads the child's /metrics.
func scrape(client *http.Client, base string) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	status, body, err := get(client, base+"/metrics", stallGrace)
	if err != nil {
		return snap, fmt.Errorf("scrape /metrics: %w", err)
	}
	if status != http.StatusOK {
		return snap, fmt.Errorf("scrape /metrics: HTTP %d", status)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("scrape /metrics: %w", err)
	}
	return snap, nil
}

// requirePriced fails the run if the child's planner priced no iteration
// between two scrapes. ppserve loads -tune leniently: a profile it cannot
// read degrades to the untuned model with one log line, which would show
// here as a large fake regression instead of an error.
func requirePriced(before, after serve.MetricsSnapshot) error {
	if after.Planner.PricedIters <= before.Planner.PricedIters {
		return fmt.Errorf("the child priced no planner iteration (priced_iters %d -> %d): %s was not loaded, the run would measure the untuned server",
			before.Planner.PricedIters, after.Planner.PricedIters, tunePath)
	}
	return nil
}

// measured is one window with the child-side readings taken around it.
type measured struct {
	win            windowResult
	fig            figures
	peakRSSMB      float64
	before, after  serve.MetricsSnapshot
	clientCPUS     float64 // the generator's own CPU over the window
	attempted, bad int
	good           int
}

// measureWindow runs one window against a deployed child.
func measureWindow(c *child, clients []*http.Client, w *workload, p *prepared, window time.Duration) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = scrape(clients[0], c.base); err != nil {
		return nil, c.fail("%v", err)
	}
	self0 := selfCPUSeconds()
	if m.win, err = runWindow(clients, c.base, w, p.pools, p.verifier, window, c.cpuSeconds); err != nil {
		return nil, err
	}
	m.clientCPUS = selfCPUSeconds() - self0
	if m.peakRSSMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}
	if m.after, err = scrape(clients[0], c.base); err != nil {
		return nil, c.fail("%v", err)
	}
	var firstErr error
	m.attempted, m.bad, firstErr = m.win.counts()
	m.good = m.attempted - m.bad
	if firstErr != nil {
		fmt.Printf("first failed operation: %v\n", firstErr)
	}
	if m.good == 0 {
		return nil, c.fail("no good query in the window (%d attempted): %v", m.attempted, firstErr)
	}
	if err := requirePriced(m.before, m.after); err != nil {
		return nil, c.fail("%v", err)
	}
	if m.fig, err = m.win.figures(w.primary()); err != nil {
		return nil, c.fail("%v", err)
	}
	return m, nil
}

// timings are the figures of a loaded window that the host cannot repeat
// from run to run, under the names the traced pass reports them by. The
// end-to-end pass prints them too, ungated.
func (m *measured) timings() map[string]metric {
	lat := m.fig.lat
	return map[string]metric{
		"ppserve.goodput_qps":      {m.fig.qps, "1/s"},
		"ppserve.lat_p50_ms":       {percentile(lat, 50), "ms"},
		"ppserve.lat_p90_ms":       {percentile(lat, 90), "ms"},
		"ppserve.lat_p99_ms":       {percentile(lat, 99), "ms"},
		"ppserve.cpu_ms_per_query": {m.fig.cpuMS, "ms"},
	}
}

// runUntraced is the end-to-end pass: deploy setupReps times (setup_s is
// the median), measure one window on the last deployment, drain. It
// gates what repeats on a shared host — set-up time, memory, and the share
// of queries answered within their latency limit — and prints the
// window's timings beside them.
func runUntraced(w *workload, seed int64, window time.Duration) (*report, error) {
	bin, err := serveBinary()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := prepare(w, seed, w.graphs())
	if err != nil {
		return nil, err
	}
	prepareS := time.Since(t0).Seconds()
	clients := make([]*http.Client, len(w.conns))
	for i := range clients {
		clients[i] = newClient()
	}

	var c *child
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			if err := c.terminate(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if c, took, err = deploy(bin, clients[0], p, seed); err != nil {
			return nil, err
		}
		defer c.stop()
		setups = append(setups, took.Seconds())
	}

	m, err := measureWindow(c, clients, w, p, window)
	if err != nil {
		return nil, err
	}
	if err := c.terminate(); err != nil {
		return nil, err
	}

	rep := &report{
		Correct:   m.bad == 0,
		Attempted: m.attempted,
		Failed:    m.bad,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"in_limit_frac": {m.fig.inLimit, "ratio"},
			"peak_rss_mb":   {m.peakRSSMB, "MB"},
		},
	}

	fmt.Printf("workload %s, seed %d, window %.1fs after a %.0fs ramp: %d attempted, %d failed\n",
		w.name, seed, (m.win.to - m.win.from).Seconds(), ramp.Seconds(), m.attempted, m.bad)
	fmt.Printf("  graphs, root pools and oracle answers prepared in %.2f s\n", prepareS)
	fmt.Printf("  setup_s over %d deployments: %.3f\n", setupReps, setups)
	printMetrics(rep.Metrics, sortedNames(rep.Metrics))
	lat := m.fig.lat
	fmt.Printf("  primary stream %s: %d samples, %d beyond p90, %d beyond p99; limit %v\n",
		w.primary().key(), len(lat), samplesBeyond(len(lat), 90), samplesBeyond(len(lat), 99), w.primary().limit)
	for _, st := range w.streams()[1:] {
		l := m.win.streamLatencies(st)
		fmt.Printf("  secondary stream %s: p50 %.3f ms over %d samples; limit %v\n", st.key(), percentile(l, 50), len(l), st.limit)
	}
	timings := m.timings()
	printMetrics(timings, sortedNames(timings))
	scraped := scrapedMetrics(m)
	printMetrics(scraped, sortedNames(scraped))
	// For aa, which shows how far the timings moved between runs of one
	// commit.
	line, err := json.Marshal(timings)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s%s\n", ungatedPrefix, line)
	return rep, nil
}

// ungatedPrefix starts the line on which the end-to-end pass repeats, for
// machines, the timings it measured but does not gate.
const ungatedPrefix = "ungated "

func printMetrics(ms map[string]metric, order []string) {
	for _, name := range order {
		v := ms[name]
		fmt.Printf("  %-34s %12.4f %s\n", name, v.Value, v.Unit)
	}
}

// scrapedMetrics turns the two /metrics scrapes around a window into the
// serve layer's per-window figures.
func scrapedMetrics(m *measured) map[string]metric {
	var ran0, ran1 uint64
	var runMS, queueMS float64
	for name, a1 := range m.after.Algorithms {
		a0 := m.before.Algorithms[name]
		n0, n1 := sum(a0.LatencyBuckets), sum(a1.LatencyBuckets)
		w0, w1 := sum(a0.QueueWaitBuckets), sum(a1.QueueWaitBuckets)
		ran0, ran1 = ran0+n0, ran1+n1
		runMS += a1.MeanMS*float64(n1) - a0.MeanMS*float64(n0)
		queueMS += a1.MeanQueueMS*float64(w1) - a0.MeanQueueMS*float64(w0)
	}
	ran := float64(ran1 - ran0)
	b, a := m.before, m.after
	submitted := float64(a.Submitted - b.Submitted)
	shed := float64(a.Rejected-b.Rejected) + float64(a.Admission.ShedInQueue-b.Admission.ShedInQueue)
	trips := float64(a.Admission.BudgetTrips - b.Admission.BudgetTrips)
	push := float64(a.Planner.PushIters - b.Planner.PushIters)
	pull := float64(a.Planner.PullIters - b.Planner.PullIters)
	flips := float64(a.Planner.Flips - b.Planner.Flips)
	predicted := float64(a.Planner.PricedPredictedNs - b.Planner.PricedPredictedNs)
	pricedMeasured := float64(a.Planner.PricedMeasuredNs - b.Planner.PricedMeasuredNs)
	return map[string]metric{
		"serve.mean_queue_ms":            {queueMS / ran, "ms"},
		"serve.mean_run_ms":              {runMS / ran, "ms"},
		"serve.admitted_frac":            {(submitted - shed) / submitted, "ratio"},
		"serve.in_budget_frac":           {(ran - trips) / ran, "ratio"},
		"serve.planner_pull_share":       {pull / (push + pull), "ratio"},
		"serve.planner_flip_rate":        {flips / (push + pull), "ratio"},
		"serve.planner_prediction_ratio": {pricedMeasured / predicted, "ratio"},
	}
}

func sum(xs []uint64) (total uint64) {
	for _, x := range xs {
		total += x
	}
	return total
}
