package serve

import (
	"context"
	"errors"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/par"
)

// latBuckets is the number of power-of-two latency histogram buckets:
// bucket b counts queries whose latency is < 2^b microseconds (the last
// bucket absorbs everything slower — 2^23 µs ≈ 8.4 s).
const latBuckets = 24

// latHist is one power-of-two latency histogram.
type latHist struct {
	buckets [latBuckets]atomic.Uint64
	totalNs atomic.Uint64
}

func (h *latHist) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.totalNs.Add(uint64(ns))
	b := 0
	for us := ns / 1e3; us > 0 && b < latBuckets-1; us >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
}

// read copies the buckets out, returning the population and total ns.
func (h *latHist) read(out *[]uint64) (total, totalNs uint64) {
	*out = make([]uint64, latBuckets)
	for b := range h.buckets {
		(*out)[b] = h.buckets[b].Load()
		total += (*out)[b]
	}
	return total, h.totalNs.Load()
}

// algoMetrics is one algorithm's outcome counters and latency histograms.
// Queue wait and run time are recorded separately: queries shed while
// queued (context dead at claim time) land in the dedicated queueShed
// outcome without ever touching the run histogram, so it holds kernel
// times only. All fields are atomics: workers record concurrently,
// Snapshot reads without stopping the world.
type algoMetrics struct {
	ok        atomic.Uint64
	errs      atomic.Uint64 // failures outside the taxonomy below
	cancelled atomic.Uint64 // client gone mid-run (ErrCancelled, not deadline)
	deadline  atomic.Uint64 // per-query deadline expired mid-run
	budget    atomic.Uint64 // execution budget tripped mid-run
	panics    atomic.Uint64 // kernel faults (ErrKernelPanic)
	queueShed atomic.Uint64 // context dead at claim time; never ran
	run       latHist       // run time of queries that reached a kernel
	queueWait latHist       // admission-to-claim wait of those same queries
}

// observeRun records a query that actually ran: its queue wait, its run
// time, and its outcome.
func (m *algoMetrics) observeRun(queueD, runD time.Duration, err error) {
	switch {
	case err == nil:
		m.ok.Add(1)
	case errors.Is(err, graphblas.ErrKernelPanic):
		m.panics.Add(1)
	case errors.Is(err, graphblas.ErrBudgetExceeded):
		m.budget.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		m.deadline.Add(1)
	case errors.Is(err, graphblas.ErrCancelled):
		m.cancelled.Add(1)
	default:
		m.errs.Add(1)
	}
	m.queueWait.observe(queueD)
	m.run.observe(runD)
}

// observeQueueShed records a query claimed with a dead context: it waited
// queueD and then never ran. Kept out of the run histogram by design.
func (m *algoMetrics) observeQueueShed(queueD time.Duration) {
	m.queueShed.Add(1)
	m.queueWait.observe(queueD)
}

// PlannerMetrics aggregates the direction planner's decision-quality
// evidence across every traced traversal the pool serves: the push/pull
// iteration mix, how often a traversal flips direction, and — on
// calibrated runs — the predicted-vs-measured nanosecond sums whose ratio
// is the live prediction error.
type PlannerMetrics struct {
	pushIters atomic.Uint64
	pullIters atomic.Uint64
	flips     atomic.Uint64
	// measuredNs sums every traced iteration's kernel time; pricedNs
	// pairs sum only iterations the calibrated model priced
	// (PredictedNs > 0), so predicted/measured compares like with like.
	measuredNs        atomic.Uint64
	pricedIters       atomic.Uint64
	pricedPredictedNs atomic.Uint64
	pricedMeasuredNs  atomic.Uint64
}

// observe folds one traversal iteration's trace record in. prevDir/first
// are the caller's per-traversal flip-detection state.
func (p *PlannerMetrics) observe(dir graphblas.TraversalDirection, predictedNs, measuredNs float64, flipped bool) {
	if dir == graphblas.PullDirection {
		p.pullIters.Add(1)
	} else {
		p.pushIters.Add(1)
	}
	if flipped {
		p.flips.Add(1)
	}
	if measuredNs > 0 {
		p.measuredNs.Add(uint64(measuredNs))
	}
	if predictedNs > 0 {
		p.pricedIters.Add(1)
		p.pricedPredictedNs.Add(uint64(predictedNs))
		if measuredNs > 0 {
			p.pricedMeasuredNs.Add(uint64(measuredNs))
		}
	}
}

// Metrics is the server's live counter set. One instance per Server;
// everything is lock-free on the record path.
type Metrics struct {
	algos     map[string]*algoMetrics // fixed key set after newMetrics
	submitted atomic.Uint64
	queueHigh atomic.Int64
	planner   PlannerMetrics
	queueLen  func() int // bound to the scheduler by New
	// classLens reads the scheduler's per-class depths and aged-claim
	// count (nil-safe for bare Metrics tests).
	classLens func() (interactive, batch int, aged uint64)
	// predictions reads the whole-query predictor's entries for Snapshot.
	predictions func() map[string]PredictionSnapshot
	// graphInfos reads the registry's per-graph lifecycle surface for
	// Snapshot (bound by the Server; nil-safe for bare Metrics tests).
	graphInfos func() (degraded bool, infos []GraphInfo)

	// Admission shed taxonomy. shedFull is the classic bounded-queue
	// rejection; shedInfeasible the deadline-feasibility fast-fail;
	// shedInQueue counts admitted queries whose context died before a
	// worker claimed them.
	shedFull       atomic.Uint64
	shedInfeasible atomic.Uint64
	shedInQueue    atomic.Uint64
	// budgetTrips counts queries cancelled by their execution budget.
	budgetTrips atomic.Uint64

	// Lifecycle counters: snapshot refcount transitions, reload outcomes,
	// and worker self-healing.
	snapshotsInstalled atomic.Uint64 // snapshots that passed validation and swapped in
	snapshotsRetired   atomic.Uint64 // snapshots replaced or closed out
	snapshotsReleased  atomic.Uint64 // retired snapshots whose last reference dropped
	reloads            atomic.Uint64 // per-graph reload attempts that succeeded
	reloadFailures     atomic.Uint64 // per-graph reload attempts that rolled back
	workerRetirements  atomic.Uint64 // workers retired by the fault-streak limit
	faultStreakHigh    atomic.Int64  // deepest consecutive-fault streak seen
	graphMapped        atomic.Int64  // bytes mapped for live and draining snapshots' graphs
}

func (m *Metrics) noteFaultStreak(streak int) {
	for {
		cur := m.faultStreakHigh.Load()
		if int64(streak) <= cur || m.faultStreakHigh.CompareAndSwap(cur, int64(streak)) {
			return
		}
	}
}

func newMetrics(algos []string) *Metrics {
	m := &Metrics{algos: make(map[string]*algoMetrics, len(algos))}
	for _, a := range algos {
		m.algos[a] = &algoMetrics{}
	}
	m.queueLen = func() int { return 0 }
	return m
}

func (m *Metrics) noteQueueDepth(depth int) {
	for {
		cur := m.queueHigh.Load()
		if int64(depth) <= cur || m.queueHigh.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// AlgoSnapshot is one algorithm's counters at Snapshot time.
type AlgoSnapshot struct {
	OK        uint64 `json:"ok"`
	Errors    uint64 `json:"errors"`
	Cancelled uint64 `json:"cancelled"`
	Deadline  uint64 `json:"deadline"`
	// Budget counts queries cancelled mid-run by their execution budget.
	Budget uint64 `json:"budget"`
	Panics uint64 `json:"panics"`
	// QueueShed counts admitted queries whose context died while queued —
	// claimed and shed without running. They appear in the queue-wait
	// histogram but never in the run histogram.
	QueueShed uint64 `json:"queue_shed"`
	// MeanMS is the mean run latency (kernel time, not queue wait) of
	// queries that actually ran, in milliseconds.
	MeanMS float64 `json:"mean_ms"`
	// MeanQueueMS is the mean admission-to-claim wait in milliseconds.
	MeanQueueMS float64 `json:"mean_queue_ms"`
	// LatencyBuckets[b] counts ran queries with run latency < 2^b
	// microseconds; the last bucket absorbs the overflow.
	LatencyBuckets []uint64 `json:"latency_buckets_us_pow2"`
	// QueueWaitBuckets is the same power-of-two histogram over queue wait
	// (ran + queue-shed queries).
	QueueWaitBuckets []uint64 `json:"queue_wait_buckets_us_pow2"`
}

// PlannerSnapshot is the decision-quality section of /metrics.
type PlannerSnapshot struct {
	PushIters uint64 `json:"push_iters"`
	PullIters uint64 `json:"pull_iters"`
	Flips     uint64 `json:"flips"`
	// FlipRate is flips per traced iteration.
	FlipRate   float64 `json:"flip_rate"`
	MeasuredNs uint64  `json:"measured_ns"`
	// Priced* cover only iterations the calibrated cost model priced;
	// PredictionRatio = measured/predicted over those (1.0 = perfectly
	// fitted profile, 0 when the pool runs untuned).
	PricedIters       uint64  `json:"priced_iters"`
	PricedPredictedNs uint64  `json:"priced_predicted_ns"`
	PricedMeasuredNs  uint64  `json:"priced_measured_ns"`
	PredictionRatio   float64 `json:"prediction_ratio"`
}

// AdmissionSnapshot is the overload-robustness section of /metrics: the
// shed taxonomy, the per-class queue state, and budget enforcement.
type AdmissionSnapshot struct {
	// ShedFull counts bounded-queue rejections (the queue had no slot).
	ShedFull uint64 `json:"shed_full"`
	// ShedInfeasible counts deadline-feasibility rejections: predicted
	// queue drain plus the query's own predicted run time exceeded its
	// deadline, so it was fast-failed instead of admitted to time out.
	ShedInfeasible uint64 `json:"shed_infeasible"`
	// ShedInQueue counts admitted queries whose context died while queued
	// (client gone, or a deadline shorter than the queue wait) — shed at
	// claim time without burning a kernel.
	ShedInQueue uint64 `json:"shed_in_queue"`
	// BudgetTrips counts queries cancelled mid-run by their execution
	// budget.
	BudgetTrips uint64 `json:"budget_trips"`
	// QueueInteractive/QueueBatch are the per-class queue populations
	// right now; AgedBatchClaims counts batch tasks claimed through the
	// anti-starvation aging bound while interactive work was waiting.
	QueueInteractive int    `json:"queue_interactive"`
	QueueBatch       int    `json:"queue_batch"`
	AgedBatchClaims  uint64 `json:"aged_batch_claims"`
}

// LifecycleSnapshot is the graph-lifecycle section of /metrics: snapshot
// refcount transitions, reload outcomes (including each graph's
// structured rollback reason), and worker self-healing counters.
type LifecycleSnapshot struct {
	// Degraded is true while any registered graph has no serving snapshot.
	Degraded bool `json:"degraded"`
	// SnapshotsInstalled/Retired/Released trace the refcount lifecycle: a
	// healthy idle server has Installed = Retired + live graphs and
	// Retired = Released (every retired snapshot drained and freed).
	SnapshotsInstalled uint64 `json:"snapshots_installed"`
	SnapshotsRetired   uint64 `json:"snapshots_retired"`
	SnapshotsReleased  uint64 `json:"snapshots_released"`
	// Reloads/ReloadFailures count per-graph reload attempts; each
	// failure's reason is on the graph's entry below.
	Reloads        uint64 `json:"reloads"`
	ReloadFailures uint64 `json:"reload_failures"`
	// WorkerRetirements counts workers replaced by the fault-streak
	// limit; FaultStreakHighWater is the deepest consecutive-fault streak
	// any worker reached.
	WorkerRetirements    uint64 `json:"worker_retirements"`
	FaultStreakHighWater int64  `json:"fault_streak_high_water"`
	// Graphs is each registered graph's lifecycle surface (status,
	// serving generation, last load/validate error).
	Graphs []GraphInfo `json:"graphs"`
}

// MetricsSnapshot is the JSON document /metrics serves.
type MetricsSnapshot struct {
	Submitted uint64 `json:"submitted"`
	// Rejected is the total shed count across every admission-time shed
	// path (full + infeasible); the Admission section splits it.
	Rejected uint64 `json:"rejected"`
	// QueueDepth is the admission queue's population right now;
	// QueueHighWater the deepest it has been.
	QueueDepth     int   `json:"queue_depth"`
	QueueHighWater int64 `json:"queue_high_water"`
	// ParkedWorkers is the parallel runtime's persistent worker count —
	// stable across a healthy run (the no-goroutine-leak invariant).
	ParkedWorkers int                     `json:"parked_workers"`
	Algorithms    map[string]AlgoSnapshot `json:"algorithms"`
	Admission     AdmissionSnapshot       `json:"admission"`
	// Predictions is the whole-query cost predictor, keyed "graph/algo":
	// the measured-runtime EWMA and the predicted-vs-measured accuracy
	// ratio.
	Predictions map[string]PredictionSnapshot `json:"predictions,omitempty"`
	Planner     PlannerSnapshot               `json:"planner"`
	Lifecycle   LifecycleSnapshot             `json:"lifecycle"`
	Runtime     RuntimeSnapshot               `json:"runtime"`
}

// RuntimeSnapshot is the Go runtime's own heap accounting, read from
// runtime/metrics at scrape time. Two scrapes give the process's garbage
// rate (AllocatedBytes over the interval) and how often it collected.
type RuntimeSnapshot struct {
	// HeapLiveBytes is the heap the last collection found reachable;
	// HeapGoalBytes the size at which the next one ends (≈ live × (1 +
	// GOGC/100)), which is what resident memory tracks.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// GCCycles counts completed collections, AllocatedBytes every heap byte
	// allocated, both since process start.
	GCCycles       uint64 `json:"gc_cycles"`
	AllocatedBytes uint64 `json:"allocated_bytes"`
	// GraphMappedBytes is the served graphs' mapped regions, outside the
	// heap: current snapshots' and draining retired ones'.
	GraphMappedBytes int64 `json:"graph_mapped_bytes"`
}

func readRuntime() RuntimeSnapshot {
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var v [4]uint64
	for i, s := range samples {
		// A name this runtime does not export reads as KindBad: leave zero.
		if s.Value.Kind() == metrics.KindUint64 {
			v[i] = s.Value.Uint64()
		}
	}
	return RuntimeSnapshot{HeapLiveBytes: v[0], HeapGoalBytes: v[1], GCCycles: v[2], AllocatedBytes: v[3]}
}

// Snapshot captures the counters for /metrics. Safe to call concurrently
// with serving; individual counters are read atomically (the set is not a
// consistent cut, which monitoring does not need).
func (m *Metrics) Snapshot() MetricsSnapshot {
	adm := AdmissionSnapshot{
		ShedFull:       m.shedFull.Load(),
		ShedInfeasible: m.shedInfeasible.Load(),
		ShedInQueue:    m.shedInQueue.Load(),
		BudgetTrips:    m.budgetTrips.Load(),
	}
	if m.classLens != nil {
		adm.QueueInteractive, adm.QueueBatch, adm.AgedBatchClaims = m.classLens()
	}
	s := MetricsSnapshot{
		Submitted:      m.submitted.Load(),
		Rejected:       adm.ShedFull + adm.ShedInfeasible,
		QueueDepth:     m.queueLen(),
		QueueHighWater: m.queueHigh.Load(),
		ParkedWorkers:  par.ParkedWorkers(),
		Algorithms:     make(map[string]AlgoSnapshot, len(m.algos)),
		Admission:      adm,
	}
	if m.predictions != nil {
		s.Predictions = m.predictions()
	}
	for name, a := range m.algos {
		as := AlgoSnapshot{
			OK:        a.ok.Load(),
			Errors:    a.errs.Load(),
			Cancelled: a.cancelled.Load(),
			Deadline:  a.deadline.Load(),
			Budget:    a.budget.Load(),
			Panics:    a.panics.Load(),
			QueueShed: a.queueShed.Load(),
		}
		ran, runNs := a.run.read(&as.LatencyBuckets)
		waited, waitNs := a.queueWait.read(&as.QueueWaitBuckets)
		if ran > 0 {
			as.MeanMS = float64(runNs) / float64(ran) / 1e6
		}
		if waited > 0 {
			as.MeanQueueMS = float64(waitNs) / float64(waited) / 1e6
		}
		s.Algorithms[name] = as
	}
	p := &m.planner
	ps := PlannerSnapshot{
		PushIters:         p.pushIters.Load(),
		PullIters:         p.pullIters.Load(),
		Flips:             p.flips.Load(),
		MeasuredNs:        p.measuredNs.Load(),
		PricedIters:       p.pricedIters.Load(),
		PricedPredictedNs: p.pricedPredictedNs.Load(),
		PricedMeasuredNs:  p.pricedMeasuredNs.Load(),
	}
	if iters := ps.PushIters + ps.PullIters; iters > 0 {
		ps.FlipRate = float64(ps.Flips) / float64(iters)
	}
	if ps.PricedPredictedNs > 0 {
		ps.PredictionRatio = float64(ps.PricedMeasuredNs) / float64(ps.PricedPredictedNs)
	}
	s.Planner = ps
	ls := LifecycleSnapshot{
		SnapshotsInstalled:   m.snapshotsInstalled.Load(),
		SnapshotsRetired:     m.snapshotsRetired.Load(),
		SnapshotsReleased:    m.snapshotsReleased.Load(),
		Reloads:              m.reloads.Load(),
		ReloadFailures:       m.reloadFailures.Load(),
		WorkerRetirements:    m.workerRetirements.Load(),
		FaultStreakHighWater: m.faultStreakHigh.Load(),
	}
	if m.graphInfos != nil {
		ls.Degraded, ls.Graphs = m.graphInfos()
	}
	s.Lifecycle = ls
	s.Runtime = readRuntime()
	s.Runtime.GraphMappedBytes = m.graphMapped.Load()
	return s
}
