package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// Config sizes a Server. Everything else the server decides is fixed:
// see the constants below.
type Config struct {
	// Workers is the fixed worker-goroutine count (default GOMAXPROCS).
	// Each worker owns its pinned workspaces; queries on one worker run
	// serially, concurrency comes from the pool width.
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers). A full
	// queue rejects with ErrQueueFull instead of building unbounded
	// latency.
	QueueDepth int
	// Model, when non-nil, is the calibrated cost model every query's
	// planner prices with (loaded from the host-keyed PPTUNE profile, or
	// fitted at startup). Shared read-only across workers — correctors,
	// which are mutable, stay per-query.
	Model *core.CostModel
	// MinBudget floors the per-query budget so a fast prediction cannot
	// produce a hair-trigger budget: predictions measured on an idle
	// server understate wall time under contention, and a sub-second
	// budget would cut off queries whose clock is dominated by scheduling
	// noise rather than runaway cost (default 1s).
	MinBudget time.Duration
}

const (
	// defaultTimeout is the per-query deadline when the request sets none;
	// maxTimeout caps the deadlines requests do set.
	defaultTimeout = 30 * time.Second
	maxTimeout     = 5 * time.Minute
	// recentQueries sizes the /debug/queries completed-query ring.
	recentQueries = 32
	// faultStreakLimit is the consecutive-kernel-fault count at which a
	// worker is retired and replaced with a fresh goroutine and arena.
	faultStreakLimit = 3
	// validateTimeout bounds each snapshot validation's smoke traversal.
	validateTimeout = 30 * time.Second
	// batchAging is the anti-starvation bound for batch-class queries:
	// whenever batch work is waiting, one batch task is claimed per bound
	// even if interactive work keeps arriving.
	batchAging = 3 * time.Second
	// budgetMultiple scales each query's predicted run time into its
	// execution budget: a query exceeding budgetMultiple×prediction (but
	// at least Config.MinBudget) is cancelled with
	// graphblas.ErrBudgetExceeded and returns its partial progress.
	// Queries without a prediction are never budget-bound, and no budget
	// outlasts the query's deadline, which maxTimeout already caps.
	budgetMultiple = 8
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MinBudget <= 0 {
		c.MinBudget = time.Second
	}
	return c
}

// task is one admitted query traveling from Do to a worker. It owns one
// reference on its snapshot from admission until runTask releases it.
type task struct {
	id      uint64
	req     Request
	snap    *snapshot
	r       *runner
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan outcome // buffered(1): the worker never blocks on delivery
	info    *QueryInfo
	started time.Time

	// class is the scheduling class index; deadline the query's absolute
	// deadline (the EDF key); predictedNs the admission-time whole-query
	// prediction (0 = unknown); seq the scheduler's admission tiebreak.
	class       int
	deadline    time.Time
	predictedNs float64
	seq         uint64
}

type outcome struct {
	res Result
	err error
}

// QueryInfo is one query's lifecycle record for /debug/queries. Fields
// are written by the owning worker and read racily-but-safely via the
// server's query mutex.
type QueryInfo struct {
	ID     uint64 `json:"id"`
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`
	Source int    `json:"source"`
	// Gen is the snapshot generation the query ran on.
	Gen     uint64    `json:"gen,omitempty"`
	Class   string    `json:"class"`
	State   string    `json:"state"` // queued | running | done
	Status  string    `json:"status,omitempty"`
	Worker  int       `json:"worker,omitempty"`
	Started time.Time `json:"started"`
	// QueueMS is the admission-to-claim wait; RunMS the kernel time (zero
	// for queries shed while queued); DurationMS their sum.
	QueueMS    float64 `json:"queue_ms,omitempty"`
	RunMS      float64 `json:"run_ms,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// worker is one pool goroutine's private state: the pinned workspaces
// (one per graph shape, reused query over query — the zero-alloc kernel
// path), the shared read-only cost model, and the shared metrics sinks.
// Workers self-heal: a streak of consecutive kernel faults retires the
// worker, and the pool replaces it with a fresh goroutine and arena.
type worker struct {
	id      int // unique across the server's lifetime (replacements get new ids)
	slot    int // pool position, stable across replacement
	pinned  map[[2]int]*graphblas.Workspace
	model   *core.CostModel
	planner *PlannerMetrics
	// faultStreak counts consecutive queries that died to a kernel fault;
	// any successful query resets it (cancellations and deadline expiries
	// leave it unchanged — they say nothing about the worker's arena).
	faultStreak int
	// shapeEpoch is the registry epoch the pinned map was last pruned
	// against.
	shapeEpoch uint64
}

// workspace returns the worker's pinned arena for a graph shape, acquiring
// one on first use. Exclusively owned: only this worker's current query
// touches it.
func (w *worker) workspace(rows, cols int) *graphblas.Workspace {
	key := [2]int{rows, cols}
	ws := w.pinned[key]
	if ws == nil {
		ws = graphblas.AcquireWorkspace(rows, cols)
		w.pinned[key] = ws
	}
	return ws
}

// dropWorkspace releases the pinned arena for a shape after a kernel
// fault: Release discards a tainted workspace instead of pooling it, and
// the next query on this shape re-acquires fresh scratch.
func (w *worker) dropWorkspace(rows, cols int) {
	key := [2]int{rows, cols}
	if ws := w.pinned[key]; ws != nil {
		ws.Release()
		delete(w.pinned, key)
	}
}

// releaseAll returns every pinned workspace to the pool on shutdown or
// retirement.
func (w *worker) releaseAll() {
	for key, ws := range w.pinned {
		ws.Release()
		delete(w.pinned, key)
	}
}

// pruneStale drops pinned workspaces whose graph shape no longer belongs
// to any serving snapshot — the seam that frees per-worker arenas keyed to
// a retired shape after a reload changes a graph's dimensions. Runs
// between tasks (the pinned map is never shared), and only when the
// registry's shape set actually changed since the last prune.
func (w *worker) pruneStale(r *graphRegistry) {
	epoch := r.shapeEpoch.Load()
	if epoch == w.shapeEpoch {
		return
	}
	live := r.liveShapes()
	for key, ws := range w.pinned {
		if !live[key] {
			ws.Release()
			delete(w.pinned, key)
		}
	}
	w.shapeEpoch = epoch
}

// Server is the query service: the snapshot registry, the cost-aware
// admission scheduler, and the self-healing worker pool.
type Server struct {
	cfg      Config
	registry *graphRegistry
	reloadMu sync.Mutex // serializes Reload passes
	sched    *scheduler
	pred     *predictor
	metrics  *Metrics
	nextID   atomic.Uint64
	closed   atomic.Bool
	wg       sync.WaitGroup

	wmu          sync.Mutex
	workers      []*worker // slot-indexed; entries swap on self-heal
	nextWorkerID atomic.Int64

	qmu      sync.Mutex
	inflight map[uint64]*QueryInfo
	recent   []*QueryInfo // ring, newest at len-1
}

// New builds a Server over already-loaded graphs and starts its workers,
// as NewFromSources does over sources that return them.
func New(cfg Config, graphs ...*Graph) (*Server, error) {
	sources := make([]GraphSource, 0, len(graphs))
	for _, g := range graphs {
		if g == nil || g.Mat == nil || g.Name == "" {
			return nil, fmt.Errorf("%w: nil or unnamed graph", ErrBadRequest)
		}
		sources = append(sources, StaticSource(g))
	}
	return NewFromSources(cfg, sources)
}

// NewFromSources builds a Server over graph sources, loading and
// validating each one. A graph that fails to load or validate stays
// registered but failed — it answers 503 until a reload brings it up, and
// Ready reports false meanwhile — while the valid subset serves. A source
// without a name or loader, a duplicate name, or no graph serving at all
// refuses to start.
func NewFromSources(cfg Config, sources []GraphSource) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(sources) == 0 {
		return nil, fmt.Errorf("%w: no graphs", ErrBadRequest)
	}
	s := &Server{
		cfg:      cfg,
		sched:    newScheduler(cfg.QueueDepth, batchAging),
		pred:     newPredictor(),
		metrics:  newMetrics(AlgorithmNames()),
		inflight: make(map[uint64]*QueryInfo),
	}
	s.registry = newGraphRegistry(s.metrics)
	var firstErr error
	for _, src := range sources {
		err := s.registry.add(src)
		if errors.Is(err, ErrBadRequest) {
			s.registry.close()
			return nil, err
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.registry.degraded() && len(s.registry.liveShapes()) == 0 {
		s.registry.close()
		return nil, fmt.Errorf("no graph loaded successfully: %w", firstErr)
	}
	s.metrics.queueLen = s.sched.depth
	s.metrics.classLens = s.sched.classDepths
	s.metrics.predictions = s.pred.snapshot
	s.metrics.graphInfos = func() (bool, []GraphInfo) {
		return s.registry.degraded(), s.registry.infos()
	}
	s.workers = make([]*worker, cfg.Workers)
	for i := range s.workers {
		w := s.newWorker(i)
		s.workers[i] = w
		s.wg.Add(1)
		go s.serveLoop(w)
	}
	return s, nil
}

// newWorker builds a fresh worker for a pool slot with a new unique id
// and empty arena map.
func (s *Server) newWorker(slot int) *worker {
	return &worker{
		id:      int(s.nextWorkerID.Add(1)),
		slot:    slot,
		pinned:  make(map[[2]int]*graphblas.Workspace),
		model:   s.cfg.Model,
		planner: &s.metrics.planner,
	}
}

// Metrics exposes the live counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// GraphInfos lists every registered graph's lifecycle surface: status,
// serving generation, dimensions, and the last load/validate failure.
func (s *Server) GraphInfos() []GraphInfo { return s.registry.infos() }

// Degraded reports whether any registered graph currently has no serving
// snapshot (failed at startup, or never recovered by a reload).
func (s *Server) Degraded() bool { return s.registry.degraded() }

// Ready is the readiness signal behind /readyz: the server accepts
// queries and every registered graph serves. A degraded server is alive
// (serving its valid subset) but not ready.
func (s *Server) Ready() bool { return !s.closed.Load() && !s.registry.degraded() }

// SetReleaseHook installs a test sentinel observing every snapshot's
// final release (name, generation). Set before traffic; not synchronized
// against in-flight releases.
func (s *Server) SetReleaseHook(hook func(name string, gen uint64)) {
	s.registry.releaseHook = hook
}

// Close stops admission, drains the queue, waits for in-flight queries to
// finish (each still bounded by its own deadline), and retires every
// snapshot. Safe against concurrent Do: admission goes through the
// scheduler's mutex, so a racing push observes the close and fails with
// ErrShuttingDown instead of racing a channel close.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.sched.close()
	s.wg.Wait()
	s.registry.close()
}

// resolve checks the request against the registry and acquires the
// graph's current snapshot, fast-failing before admission so malformed
// queries never consume a queue slot. On success the caller owns one
// snapshot reference.
func (s *Server) resolve(req Request) (*snapshot, *runner, error) {
	r, ok := registry[req.Algo]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, req.Algo)
	}
	if req.Timeout < 0 {
		return nil, nil, fmt.Errorf("%w: negative timeout", ErrBadRequest)
	}
	snap, err := s.registry.acquire(req.Graph)
	if err != nil {
		return nil, nil, err
	}
	if r.needsSource && (req.Source < 0 || req.Source >= snap.graph.Mat.NRows()) {
		n := snap.graph.Mat.NRows()
		snap.release()
		return nil, nil, fmt.Errorf("%w: source %d out of range [0,%d)", ErrBadRequest, req.Source, n)
	}
	return snap, r, nil
}

// budgetFor derives a query's execution budget from its admission-time
// prediction: budgetMultiple×predicted, floored at MinBudget. Zero means
// no budget (no prediction to scale).
func (s *Server) budgetFor(predictedNs float64) time.Duration {
	if predictedNs <= 0 {
		return 0
	}
	return max(time.Duration(predictedNs*budgetMultiple), s.cfg.MinBudget)
}

// Do admits and runs one query, blocking until it completes, its deadline
// expires, or ctx (the client's context) is done. Admission is
// non-blocking and cost-aware: a structurally invalid query fails before
// touching the queue; a query whose deadline the predicted backlog already
// makes unmeetable sheds with ErrInfeasibleDeadline instead of being
// admitted to time out in line; a full queue sheds with ErrQueueFull. Both
// sheds carry a Retry-After hint (RetryAfterHint) priced from the
// predicted backlog. The admitted query holds a reference on its
// graph snapshot for its whole lifetime, so a concurrent reload can never
// free the graph under it.
func (s *Server) Do(ctx context.Context, req Request) (Result, error) {
	if s.closed.Load() {
		return Result{}, ErrShuttingDown
	}
	class, ok := classIndex(req.Class)
	if !ok {
		return Result{}, fmt.Errorf("%w: unknown class %q", ErrBadRequest, req.Class)
	}
	snap, r, err := s.resolve(req)
	if err != nil {
		return Result{}, err
	}
	s.metrics.submitted.Add(1)
	timeout := req.Timeout
	if timeout == 0 {
		timeout = defaultTimeout
	}
	timeout = min(timeout, maxTimeout)

	predicted := s.pred.predict(req.Graph, r.name)
	if predicted > 0 {
		// Feasibility: the backlog this query would wait behind (per-class
		// predicted ns over the pool width) plus its own predicted run
		// time must fit its deadline, or admitting it just burns a worker
		// on a guaranteed timeout. The Retry-After hint is the predicted
		// overshoot — when the backlog should have drained enough to fit.
		drain := s.sched.drainNs(class) / float64(s.cfg.Workers)
		if need := drain + predicted; need > float64(timeout.Nanoseconds()) {
			snap.release()
			s.metrics.shedInfeasible.Add(1)
			over := (need - float64(timeout.Nanoseconds())) / 1e9
			return Result{}, retryHint(
				fmt.Errorf("%w: predicted %.0fms backlog + %.0fms run exceeds %v deadline",
					ErrInfeasibleDeadline, drain/1e6, predicted/1e6, timeout),
				int(math.Ceil(over)))
		}
	}

	if ctx == nil {
		ctx = context.Background()
	}
	qctx, cancel := context.WithTimeout(ctx, timeout)
	deadline, _ := qctx.Deadline()

	id := s.nextID.Add(1)
	info := &QueryInfo{
		ID: id, Graph: req.Graph, Algo: r.name, Source: req.Source, Gen: snap.gen,
		Class: className(class), State: "queued", Started: time.Now(),
	}
	t := &task{
		id: id, req: req, snap: snap, r: r,
		ctx: qctx, cancel: cancel,
		done: make(chan outcome, 1),
		info: info, started: info.Started,
		class: class, deadline: deadline, predictedNs: predicted,
	}
	if err := s.sched.push(t); err != nil {
		cancel()
		snap.release()
		if errors.Is(err, ErrQueueFull) {
			// The hint is the queued backlog's predicted drain over the
			// pool width, read at the moment of the shed.
			s.metrics.shedFull.Add(1)
			drain := s.sched.drainNs(class) / float64(s.cfg.Workers)
			return Result{}, retryHint(err, int(math.Ceil(drain/1e9)))
		}
		return Result{}, err
	}
	s.trackQueued(info)
	s.metrics.noteQueueDepth(s.sched.depth())

	select {
	case out := <-t.done:
		return out.res, out.err
	case <-ctx.Done():
		// The client is gone; the worker still observes qctx and aborts
		// at the next phase boundary, delivering into the buffered done
		// channel — nothing leaks, the caller just stops waiting, and the
		// worker still releases the snapshot reference.
		return Result{ID: id}, fmt.Errorf("%w: %w", graphblas.ErrCancelled, context.Cause(ctx))
	}
}

// serveLoop is one worker goroutine: claim a task from the scheduler, run
// it under its deadline and budget, deliver the outcome, repeat until the
// scheduler closes and drains — or until the worker's fault streak trips
// the self-healing limit, at which point it retires (releasing its
// arenas) and hands its pool slot to a fresh worker.
func (s *Server) serveLoop(w *worker) {
	defer s.wg.Done()
	wake := make(chan struct{}, 1)
	for {
		t, ok := s.sched.pop(wake)
		if !ok {
			break
		}
		w.pruneStale(s.registry)
		s.runTask(w, t)
		if w.faultStreak >= faultStreakLimit {
			w.releaseAll()
			s.replaceWorker(w)
			return
		}
	}
	w.releaseAll()
}

// replaceWorker retires w and spawns a fresh worker in its slot. The
// wg.Add happens before this goroutine's deferred Done, so the waitgroup
// never transiently reaches zero mid-replacement.
func (s *Server) replaceWorker(w *worker) {
	s.metrics.workerRetirements.Add(1)
	nw := s.newWorker(w.slot)
	s.wmu.Lock()
	s.workers[w.slot] = nw
	s.wmu.Unlock()
	s.wg.Add(1)
	go s.serveLoop(nw)
}

// workerIDs snapshots the pool's current worker ids by slot (test and
// debug surface; ids change when self-healing replaces a worker).
func (s *Server) workerIDs() []int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ids := make([]int, len(s.workers))
	for i, w := range s.workers {
		ids[i] = w.id
	}
	return ids
}

func (s *Server) runTask(w *worker, t *task) {
	defer t.snap.release()
	defer t.cancel()
	claimed := time.Now()
	queueD := claimed.Sub(t.started)

	// A query whose context died while queued (client gone, or a deadline
	// shorter than the queue wait) is shed here: it never reaches a
	// kernel and lands in the dedicated queue-shed outcome, not the run
	// histogram.
	if err := graphblas.CheckContext(t.ctx); err != nil {
		s.metrics.shedInQueue.Add(1)
		s.metrics.algos[t.r.name].observeQueueShed(queueD)
		s.trackDone(t.info, queueD, 0, err)
		t.done <- outcome{err: err}
		return
	}

	s.trackRunning(t.info, w.id)
	// The execution budget starts at claim time, not admission: queue
	// wait is the scheduler's debt, not the query's. It rides the same
	// Descriptor.Context seam as the deadline, with ErrBudgetExceeded as
	// the cancellation cause so the taxonomy distinguishes "you were cut
	// off for cost" from "your deadline passed".
	runCtx := t.ctx
	if bud := s.budgetFor(t.predictedNs); bud > 0 {
		var budCancel context.CancelFunc
		runCtx, budCancel = context.WithDeadlineCause(t.ctx, claimed.Add(bud), graphblas.ErrBudgetExceeded)
		defer budCancel()
	}
	payload, err := s.invoke(w, t, runCtx)
	runD := time.Since(claimed)

	var out outcome
	out.err = err
	if err == nil || errors.Is(err, graphblas.ErrBudgetExceeded) {
		// A budget trip still ships the algorithm's coherent partial
		// progress (marked Partial) alongside the error — the caller paid
		// for the work done so far.
		out.res = Result{
			ID: t.id, Graph: t.req.Graph, Algo: t.r.name, Source: t.req.Source,
			Gen: t.snap.gen, Worker: w.id, Partial: err != nil, Payload: payload,
		}
	}
	switch {
	case out.err == nil:
		w.faultStreak = 0
		s.pred.observe(t.req.Graph, t.r.name, t.predictedNs, float64(runD.Nanoseconds()))
	case errors.Is(out.err, graphblas.ErrBudgetExceeded):
		s.metrics.budgetTrips.Add(1)
	case isKernelPanic(out.err):
		w.faultStreak++
		s.metrics.noteFaultStreak(w.faultStreak)
	}
	total := queueD + runD
	out.res.Duration = total
	out.res.DurationMS = float64(total.Nanoseconds()) / 1e6
	s.metrics.algos[t.r.name].observeRun(queueD, runD, out.err)
	s.trackDone(t.info, queueD, runD, out.err)
	t.done <- out
}

// invoke runs the registry entry with a defensive recover: kernel panics
// already surface as ErrKernelPanic from the graphblas fault boundary,
// and this backstop converts anything that escapes (a panic in registry
// or algorithm bookkeeping) into the same taxonomy instead of killing the
// worker goroutine. Either way the worker's pinned workspace for that
// graph shape is dropped — Release discards tainted arenas — so corrupted
// scratch never serves a later query. ctx is the run context: the query
// context, possibly tightened by the execution budget.
func (s *Server) invoke(w *worker, t *task, ctx context.Context) (p Payload, err error) {
	g := t.snap.graph
	defer func() {
		if r := recover(); r != nil {
			err = graphblas.NewPanicError(r)
		}
		if err != nil && isKernelPanic(err) {
			w.dropWorkspace(g.Mat.NRows(), g.Mat.NCols())
		}
	}()
	return t.r.run(ctx, g, t.req, w)
}

func (s *Server) trackQueued(info *QueryInfo) {
	s.qmu.Lock()
	s.inflight[info.ID] = info
	s.qmu.Unlock()
}

func (s *Server) trackRunning(info *QueryInfo, workerID int) {
	s.qmu.Lock()
	info.State = "running"
	info.Worker = workerID
	s.qmu.Unlock()
}

func (s *Server) trackDone(info *QueryInfo, queueD, runD time.Duration, err error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	delete(s.inflight, info.ID)
	info.State = "done"
	info.QueueMS = float64(queueD.Nanoseconds()) / 1e6
	info.RunMS = float64(runD.Nanoseconds()) / 1e6
	info.DurationMS = info.QueueMS + info.RunMS
	if err != nil {
		info.Status = PublicErrorMessage(err)
	} else {
		info.Status = "ok"
	}
	s.recent = append(s.recent, info)
	if over := len(s.recent) - recentQueries; over > 0 {
		s.recent = append(s.recent[:0], s.recent[over:]...)
	}
}

// Queries snapshots the live and recently completed queries for
// /debug/queries: in-flight first (queued and running), then the
// completed ring, newest last.
func (s *Server) Queries() []QueryInfo {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	out := make([]QueryInfo, 0, len(s.inflight)+len(s.recent))
	for _, info := range s.inflight {
		out = append(out, *info)
	}
	for _, info := range s.recent {
		out = append(out, *info)
	}
	return out
}
