// Package serve is the concurrent graph-query service behind cmd/ppserve:
// a fixed pool of worker goroutines serving BFS / ParentBFS / SSSP /
// PageRank / CC queries over a registry of refcounted graph snapshots.
//
// Graphs live in a snapshot registry (lifecycle.go): each loaded graph is
// an immutable snapshot a query acquires at admission and releases at
// completion, so an in-flight traversal never observes a torn or freed
// graph. Reload (Server.Reload — POST /admin/reload or SIGHUP in
// cmd/ppserve) re-runs every source through load → validate → atomic
// swap; validation gates each snapshot with dimension and CSR/CSC parity
// checks plus a push-vs-pull smoke traversal, and any failure rolls back
// to the old snapshot with the reason recorded in /metrics. Retired
// snapshots free — workers' pinned arenas for dead shapes pruned — only
// after the last in-flight query releases them. A graph that fails to load
// marks the process degraded instead of killing it: served graphs keep
// working, the failed graph answers 503,
// and readiness (Server.Ready, /readyz) reports false until a reload
// brings it up. Workers self-heal: a worker whose queries die to kernel
// faults three times in a row is retired and replaced with a fresh
// goroutine and arena.
//
// The design leans on the concurrency contract the graphblas package
// documents ("Concurrency contract" in its package docs): a Matrix is
// immutable after construction and shared by every worker, while all
// mutable per-traversal state — vectors (the frontier carries the
// planner's hysteresis) and the scratch Workspace, which also owns the
// run's descriptors, corrector EWMAs and cancellation token — is owned by
// exactly one query at a time. Each worker pins one Workspace per graph
// shape across queries (the algorithms' Workspace option), so a warm
// worker serves repeat queries with an allocation-free kernel path; a
// kernel panic taints the pinned arena, and the worker drops and replaces
// it instead of trusting corrupted scratch.
//
// Admission is bounded and cost-aware. A whole-query predictor prices
// each (graph, algorithm) pair with an EWMA of measured run times, and
// the admission path sheds two ways before a query ever queues:
// ErrQueueFull when the shared queue is at capacity, and
// ErrInfeasibleDeadline when the predicted backlog plus the query's own
// predicted run time already exceed its deadline. Both map to 429 with a
// Retry-After derived from the predicted backlog. Admitted queries wait in a
// class-aware earliest-deadline-first scheduler — interactive before
// batch, batch guaranteed one claim per 3 s aging bound — and a query
// whose context dies while queued is shed at claim time without burning a
// kernel. Every query runs under a context with a per-query deadline plus
// an execution budget (8× its prediction, floored at Config.MinBudget):
// overdue, abandoned, or over-budget queries tear down
// mid-traversal through the cancellation substrate (wrapped
// graphblas.ErrCancelled; deadline expiries additionally match
// context.DeadlineExceeded, budget trips graphblas.ErrBudgetExceeded —
// the latter still shipping the algorithm's partial progress marked
// Partial). Metrics counts every outcome, buckets queue-wait and
// run-latency separately per algorithm, exports the predictor's
// per-(graph, algo) estimates with accuracy ratios, and aggregates the
// direction planner's decision-quality numbers (push/pull iteration mix,
// flip counts, predicted-vs-measured nanoseconds) so the calibration
// loop stays observable in production.
package serve

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"time"

	"pushpull/generate"
	"pushpull/graphblas"
)

// Service-level error values. Query execution additionally surfaces the
// graphblas taxonomy (ErrCancelled, ErrKernelPanic) unchanged; HTTPStatus
// maps both families to transport codes.
var (
	// ErrQueueFull reports that the admission queue rejected the query —
	// shed load and retry later (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrInfeasibleDeadline reports that the query was shed at admission
	// because the predicted queue drain plus its own predicted run time
	// already exceeds its deadline — running it would burn a worker on a
	// guaranteed timeout (HTTP 429 with a prediction-derived Retry-After).
	ErrInfeasibleDeadline = errors.New("serve: deadline infeasible under current backlog")
	// ErrShuttingDown reports that the server no longer accepts queries.
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrUnknownGraph reports a query against a graph name that was never
	// registered.
	ErrUnknownGraph = errors.New("serve: unknown graph")
	// ErrGraphUnavailable reports a query against a registered graph that
	// currently has no serving snapshot — it failed to load or validate
	// and no reload has brought it up yet (HTTP 503; the process is
	// degraded but other graphs keep serving).
	ErrGraphUnavailable = errors.New("serve: graph unavailable")
	// ErrUnknownAlgorithm reports a query for an algorithm the registry
	// does not carry.
	ErrUnknownAlgorithm = errors.New("serve: unknown algorithm")
	// ErrBadRequest reports a structurally invalid query (source out of
	// range, negative timeout, ...).
	ErrBadRequest = errors.New("serve: bad request")
)

// Graph is one served graph: the immutable Boolean adjacency matrix every
// worker shares, plus lazily derived per-algorithm views. The pattern
// matrix is safe for any number of concurrent readers; the derived views
// are built once under sync.Once and are immutable afterwards.
type Graph struct {
	Name string
	Mat  *graphblas.Matrix[bool]

	// weightedSeed picks the deterministic edge weights SSSP queries run
	// on when the graph itself is unweighted (pattern input). Zero means
	// the default seed.
	weightedSeed int64

	weightedOnce sync.Once
	weighted     *graphblas.Matrix[float64]
	weightedErr  error
}

// NewGraph wraps a loaded pattern matrix for serving.
func NewGraph(name string, m *graphblas.Matrix[bool]) *Graph {
	return &Graph{Name: name, Mat: m}
}

// Weighted returns the graph's deterministic positively-weighted copy —
// the SSSP input — building it on first use. The build is once per graph,
// not per query: concurrent SSSP queries share the result.
func (g *Graph) Weighted() (*graphblas.Matrix[float64], error) {
	g.weightedOnce.Do(func() {
		seed := g.weightedSeed
		if seed == 0 {
			seed = 99
		}
		g.weighted, g.weightedErr = generate.WeightedCopy(g.Mat, 1, 10, seed)
	})
	return g.weighted, g.weightedErr
}

// Request is one graph query.
type Request struct {
	// Graph names a loaded graph.
	Graph string `json:"graph"`
	// Algo is the registry name: bfs, parentbfs, sssp, pagerank, cc.
	Algo string `json:"algo"`
	// Source is the root vertex for the traversal algorithms (ignored by
	// pagerank and cc).
	Source int `json:"source"`
	// Timeout is the per-query deadline; zero means the 30 s default, and
	// values above the 5 m maximum are clamped to it.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Class is the scheduling class: "interactive" (default, claimed
	// first, earliest-deadline-first) or "batch" (claimed when no
	// interactive work waits, plus one anti-starvation claim per aging
	// bound). Any other value is a bad request.
	Class string `json:"class,omitempty"`
	// Full requests the complete per-vertex result arrays in the payload;
	// by default only the summary (counts, iterations, checksum) returns,
	// which is what a serving tier actually ships per query.
	Full bool `json:"full,omitempty"`
}

// Result is one completed query.
type Result struct {
	ID     uint64 `json:"id"`
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`
	Source int    `json:"source"`
	// Gen is the graph snapshot generation the query ran on; it bumps on
	// every successful reload, so clients can correlate results with the
	// data version that produced them.
	Gen      uint64        `json:"gen"`
	Duration time.Duration `json:"-"`
	// DurationMS mirrors Duration for the JSON surface.
	DurationMS float64 `json:"duration_ms"`
	// Worker is the pool worker that served the query.
	Worker int `json:"worker"`
	// Partial marks a payload cut short by the execution budget: the
	// per-vertex state is the algorithm's coherent partial progress
	// (depths discovered so far, distances as valid upper bounds, the
	// last completed PageRank iterate), not the converged answer.
	Partial bool    `json:"partial,omitempty"`
	Payload Payload `json:"result"`
}

// Distances is a per-vertex distance array as it goes on the wire. JSON has
// no infinity and encoding/json fails the whole document on one, so a
// distance that is not finite — +Inf, an unreachable vertex — encodes as
// null. Payload.Checksum still folds the exact bits, +Inf included.
type Distances []float64

// MarshalJSON implements json.Marshaler.
func (d Distances) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 8*len(d)+2)
	b = append(b, '[')
	for i, v := range d {
		if i > 0 {
			b = append(b, ',')
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			b = append(b, "null"...)
		} else {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
	}
	return append(b, ']'), nil
}

// Payload is the algorithm-specific result. Summary fields are always
// set; the per-vertex arrays only under Request.Full. Checksum is an
// FNV-1a fold over the result array, so clients (and the CI smoke test)
// can assert determinism without shipping the array.
type Payload struct {
	// Reached counts vertices with a defined result: BFS/ParentBFS
	// discovered, SSSP finite-distance, CC/PageRank all.
	Reached int `json:"reached"`
	// Iterations is the traversal's level/round/power-iteration count
	// (zero where the algorithm does not report one).
	Iterations int `json:"iterations,omitempty"`
	// MaxDepth is the BFS eccentricity from the source (BFS only).
	MaxDepth int32 `json:"max_depth,omitempty"`
	// Components is the number of weakly connected components (CC only).
	Components int `json:"components,omitempty"`
	// Checksum is the FNV-1a fold over the full result array.
	Checksum uint64 `json:"checksum"`

	Depths  []int32   `json:"depths,omitempty"`
	Parents []int64   `json:"parents,omitempty"`
	Dist    Distances `json:"dist,omitempty"`
	Ranks   []float64 `json:"ranks,omitempty"`
	Labels  []uint32  `json:"labels,omitempty"`
}
