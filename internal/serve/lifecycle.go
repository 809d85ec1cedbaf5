package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/faultinject"
	"pushpull/internal/par"
)

// This file is the graph lifecycle layer: refcounted snapshots, the
// registry that swaps them atomically on reload, and the validation gate
// every snapshot passes before it serves.
//
// The invariant the refcounts enforce: a query acquires its snapshot at
// admission and releases it at completion, so an in-flight traversal never
// observes a torn or freed graph — a reload installs the new snapshot for
// new queries while old ones drain on the retired snapshot, which frees
// (test sentinel fired) only after its last reference drops.
//
// On Linux each snapshot copies its graph's Ptr and Ind into one region
// mapped outside the Go heap (graphmem_linux.go), unmapped at the final
// release: they are valid only while the snapshot is held, and no result
// keeps them. Elsewhere, and if the mapping fails, the snapshot serves the
// loaded matrix.

// GraphSource names a graph and knows how to (re)load it. The Load
// function is called at startup and on every reload — for file-backed
// specs it re-reads the file, which is what makes hot reload pick up new
// data. Load must return a fresh or immutable *Graph; the registry never
// mutates it, and on Linux every snapshot serves its own copy of the
// matrix.
type GraphSource struct {
	Name string
	Load func() (*Graph, error)
}

// StaticSource wraps an already-loaded graph as a source whose every load
// returns it: on Linux each generation relocates its own copy of the same
// matrix and validates that. Used by New and by tests.
func StaticSource(g *Graph) GraphSource {
	return GraphSource{Name: g.Name, Load: func() (*Graph, error) { return g, nil }}
}

// snapshot is one immutable loaded generation of a graph. The registry
// holds one base reference while the snapshot is current; every admitted
// query holds one more for its lifetime. When the count reaches zero —
// only possible after the registry retired it — the release sentinel
// fires.
type snapshot struct {
	graph  *Graph
	gen    uint64
	refs   atomic.Int64
	region []byte // graph's index arrays (nil when it serves the loaded matrix); released unmaps it
	// What install spent loading and relocating the graph, and validating it.
	loadMS, validateMS float64
	// released runs exactly once when refs reaches zero (set by the
	// registry: metrics + optional test hook).
	released func()
}

// acquire takes a reference, failing only if the snapshot already hit
// zero (it was retired and fully drained between the caller loading the
// pointer and incrementing — the caller re-reads the current snapshot).
func (s *snapshot) acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (s *snapshot) release() {
	if n := s.refs.Add(-1); n == 0 {
		if s.released != nil {
			s.released()
		}
	} else if n < 0 {
		panic("serve: snapshot over-released")
	}
}

// graphEntry is one named graph's lifecycle state: its source, the
// current snapshot (nil while failed/degraded), and the status fields the
// /graphs and /metrics surfaces report.
type graphEntry struct {
	name   string
	source GraphSource
	cur    atomic.Pointer[snapshot]

	mu             sync.Mutex
	gen            uint64 // last successfully installed generation
	lastErr        string // last load/validate failure ("" after a success)
	reloadFailures uint64
}

// graphRegistry maps graph names to entries and tracks the set of live
// graph shapes so workers can prune pinned workspaces keyed to retired
// shapes.
type graphRegistry struct {
	mu      sync.RWMutex
	entries map[string]*graphEntry

	// shapeEpoch bumps on every install/retire; workers compare it against
	// their cached epoch and prune stale pinned workspaces between tasks.
	shapeEpoch atomic.Uint64

	metrics *Metrics

	// closed is set once close starts retiring snapshots: from then on a
	// graph without a snapshot is shutting down, not failed.
	closed atomic.Bool

	// releaseHook, when non-nil, observes every snapshot's final release
	// (the test sentinel for "retired snapshots actually free").
	releaseHook func(name string, gen uint64)
}

func newGraphRegistry(m *Metrics) *graphRegistry {
	return &graphRegistry{entries: make(map[string]*graphEntry), metrics: m}
}

// GraphStatus values reported per graph in /graphs and /metrics.
const (
	GraphServing = "serving"
	GraphFailed  = "failed"
)

// GraphInfo is one graph's lifecycle surface for /graphs.
type GraphInfo struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	// Gen is the serving snapshot's generation (0 while failed).
	Gen      uint64 `json:"gen"`
	Vertices int    `json:"vertices,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	// Error is the most recent load/validate failure; set both for failed
	// graphs and for serving graphs whose last reload rolled back.
	Error string `json:"error,omitempty"`
	// What the serving snapshot's load and validation took (0 while failed).
	LoadMS     float64 `json:"load_ms"`
	ValidateMS float64 `json:"validate_ms"`
}

// add registers a source and attempts its initial load. When the load or
// validation fails the entry is still registered — status failed, error
// recorded — so a later reload can bring it up. A source without a name or
// loader, or under a name already taken, is not registered: ErrBadRequest.
func (r *graphRegistry) add(src GraphSource) error {
	if src.Name == "" || src.Load == nil {
		return fmt.Errorf("%w: graph source needs a name and a loader", ErrBadRequest)
	}
	e := &graphEntry{name: src.Name, source: src}
	r.mu.Lock()
	if _, dup := r.entries[src.Name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("%w: duplicate graph %q", ErrBadRequest, src.Name)
	}
	r.entries[src.Name] = e
	r.mu.Unlock()
	return r.install(e)
}

// install loads the entry's source off to the side, relocates it into the
// snapshot's own region, validates the copy, and — only on success — swaps
// it in as the current snapshot, retiring the previous one. A failure
// unmaps the copy, leaves the previous snapshot serving and records why.
func (r *graphRegistry) install(e *graphEntry) error {
	start := time.Now()
	loaded, err := loadSource(e.source)
	var g *Graph
	var region []byte
	if err == nil {
		// Return the load's free pages before the copy faults its region
		// in: otherwise the builder's dead pages are still resident beside
		// it, and kron-bfs's peak RSS read 59 MB instead of 45–47.
		debug.FreeOSMemory()
		g = &Graph{Name: e.name, weightedSeed: loaded.weightedSeed}
		g.Mat, region = relocate(loaded.Mat)
	}
	loadD := time.Since(start)
	if err == nil {
		err = validateGraph(g)
	}
	validateD := time.Since(start) - loadD
	if err != nil {
		unmap(region)
		e.mu.Lock()
		e.lastErr = err.Error()
		if e.cur.Load() != nil {
			e.reloadFailures++
		}
		e.mu.Unlock()
		return fmt.Errorf("graph %q: %w", e.name, err)
	}

	s := &snapshot{graph: g, region: region, loadMS: float64(loadD.Nanoseconds()) / 1e6, validateMS: float64(validateD.Nanoseconds()) / 1e6}
	e.mu.Lock()
	e.gen++
	s.gen = e.gen
	e.lastErr = ""
	e.mu.Unlock()
	s.refs.Store(1) // the registry's base reference
	name, gen := e.name, s.gen
	s.released = func() {
		r.metrics.graphMapped.Add(-int64(len(s.region)))
		unmap(s.region)
		r.metrics.snapshotsReleased.Add(1)
		if r.releaseHook != nil {
			r.releaseHook(name, gen)
		}
	}
	r.metrics.snapshotsInstalled.Add(1)
	r.metrics.graphMapped.Add(int64(len(region)))

	old := e.cur.Swap(s)
	r.shapeEpoch.Add(1)
	if old != nil {
		r.metrics.snapshotsRetired.Add(1)
		old.release()
	}
	// Reset the GC pacer. A load's last cycle ran mid-build — the builder
	// frees a large edge list before allocating the result, but its
	// bucketed words are still live then — and left a heap goal of twice
	// that: room the first queries' garbage then fills before anything is
	// collected, which would set the process's peak RSS. One forced cycle
	// here, after the bucketed words and the loaded matrix die, restarts
	// the goal from what the server actually keeps. The cycle also returns
	// every free page to the OS: a cycle alone leaves the dead words' pages
	// resident beside the edge list's pages the builder already gave back,
	// and whether the next load's transients land on the resident range or
	// fault in fresh pages is the page allocator's choice, so the process's
	// peak moved by up to 3 MB from one start to the next. Workers pin
	// their workspaces, so emptying the sync.Pools costs the query path
	// nothing.
	debug.FreeOSMemory()
	return nil
}

// loadSource runs the source's loader under a recover scope (and the
// faultinject load site), so a panicking loader degrades to a load error
// instead of killing the serving process.
func loadSource(src GraphSource) (g *Graph, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			g, err = nil, fmt.Errorf("load panicked: %v", rec)
		}
	}()
	faultinject.Fire(faultinject.SiteServeLoad)
	g, err = src.Load()
	if err != nil {
		return nil, err
	}
	if g == nil || g.Mat == nil {
		return nil, fmt.Errorf("loader returned a nil graph")
	}
	return g, nil
}

// validateGraph is the gate every snapshot passes before it can serve:
// structural checks (square, non-empty, CSR and CSC describing the same
// edge set) plus a smoke traversal that runs one matvec in each direction
// and requires identical frontiers — push walks the CSC, pull scans the
// CSR, so agreement is an end-to-end parity check over both orientations.
// Runs under a recover scope (and the faultinject validate site): a panic
// during validation is a validation failure, not a process death.
func validateGraph(g *Graph) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("validate panicked: %v", rec)
		}
	}()
	faultinject.Fire(faultinject.SiteServeValidate)

	m := g.Mat
	n := m.NRows()
	if n <= 0 {
		return fmt.Errorf("validate: empty matrix (%d×%d)", m.NRows(), m.NCols())
	}
	if m.NCols() != n {
		return fmt.Errorf("validate: adjacency matrix must be square, got %d×%d", n, m.NCols())
	}
	csr, csc := m.CSR(), m.CSC()
	if csr.NNZ() != csc.NNZ() {
		return fmt.Errorf("validate: CSR/CSC nnz mismatch: %d vs %d", csr.NNZ(), csc.NNZ())
	}
	// Order-insensitive edge checksum over both orientations: CSR folds
	// (row,col), CSC folds (col,row) — equal sums mean the two views
	// describe the same edge set. Both are folded even when one array
	// serves as both, so the check stays a check; in parallel over rows,
	// which a wrapping sum does not mind.
	var hr, hc atomic.Uint64
	par.For(n, 1024, func(lo, hi int) {
		var r, c uint64
		for i := lo; i < hi; i++ {
			for _, j := range csr.Ind[csr.Ptr[i]:csr.Ptr[i+1]] {
				r += edgeHash(uint64(i), uint64(j))
			}
			for _, j := range csc.Ind[csc.Ptr[i]:csc.Ptr[i+1]] {
				c += edgeHash(uint64(j), uint64(i))
			}
		}
		hr.Add(r)
		hc.Add(c)
	})
	if hr.Load() != hc.Load() {
		return fmt.Errorf("validate: CSR/CSC edge sets differ (checksums %x vs %x)", hr.Load(), hc.Load())
	}

	if m.NVals() == 0 {
		return nil // an empty edge set has nothing to traverse
	}
	// Smoke traversal from the first vertex with out-edges: one push and
	// one pull matvec over the same frontier must agree element-for-element.
	src := -1
	for i := 0; i < csr.Rows; i++ {
		if csr.Ptr[i+1] > csr.Ptr[i] {
			src = i
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), validateTimeout)
	defer cancel()

	sr := graphblas.OrAndBool()
	f := graphblas.NewVector[bool](n)
	_ = f.SetElement(src, true)
	ws := graphblas.AcquireWorkspace(n, n)
	defer ws.Release()
	sums := [2]uint64{}
	for d, dir := range []graphblas.Direction{graphblas.ForcePush, graphblas.ForcePull} {
		out := graphblas.NewVector[bool](n)
		desc := &graphblas.Descriptor{
			Transpose:     true,
			StructureOnly: true,
			Direction:     dir,
			Workspace:     ws,
			Context:       ctx,
		}
		if _, err := graphblas.Into(out).With(desc).MxV(sr, m, f); err != nil {
			return fmt.Errorf("validate: smoke %s matvec: %w", []string{"push", "pull"}[d], err)
		}
		out.Iterate(func(i int, v bool) bool {
			if v {
				sums[d] += edgeHash(uint64(src), uint64(i))
			}
			return true
		})
	}
	if sums[0] != sums[1] {
		return fmt.Errorf("validate: smoke traversal push/pull frontiers differ (%x vs %x)", sums[0], sums[1])
	}
	return nil
}

// edgeHash mixes one (i,j) pair into an order-insensitive sum. Fibonacci
// hashing keeps permuted edge lists from colliding by accident.
func edgeHash(i, j uint64) uint64 {
	x := i*0x9e3779b97f4a7c15 ^ j*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	return x * 0xbf58476d1ce4e5b9
}

// acquire resolves a graph name to a referenced snapshot. The retry loop
// covers the reload race: if the loaded pointer drained to zero between
// the Load and the acquire, the registry has already published a newer
// snapshot (or retired the graph), so re-reading makes progress. Once
// close has begun, a graph with no snapshot reports ErrShuttingDown.
func (r *graphRegistry) acquire(name string) (*snapshot, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	for {
		s := e.cur.Load()
		if s == nil {
			if r.closed.Load() {
				return nil, ErrShuttingDown
			}
			e.mu.Lock()
			reason := e.lastErr
			e.mu.Unlock()
			return nil, fmt.Errorf("%w: %q (%s)", ErrGraphUnavailable, name, reason)
		}
		if s.acquire() {
			return s, nil
		}
	}
}

// liveShapes is the set of matrix shapes current snapshots serve —
// workers prune pinned workspaces whose shape left this set.
func (r *graphRegistry) liveShapes() map[[2]int]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	shapes := make(map[[2]int]bool, len(r.entries))
	for _, e := range r.entries {
		if s := e.cur.Load(); s != nil {
			shapes[[2]int{s.graph.Mat.NRows(), s.graph.Mat.NCols()}] = true
		}
	}
	return shapes
}

// list returns the registered entries (serving and failed).
func (r *graphRegistry) list() []*graphEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*graphEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	return out
}

// info snapshots one entry's lifecycle surface.
func (e *graphEntry) info() GraphInfo {
	gi := GraphInfo{Name: e.name}
	s := e.cur.Load()
	e.mu.Lock()
	gi.Error = e.lastErr
	e.mu.Unlock()
	if s != nil {
		gi.Status = GraphServing
		gi.Gen = s.gen
		gi.Vertices = s.graph.Mat.NRows()
		gi.Edges = s.graph.Mat.NVals()
		gi.LoadMS, gi.ValidateMS = s.loadMS, s.validateMS
	} else {
		gi.Status = GraphFailed
	}
	return gi
}

// infos lists every entry's lifecycle surface.
func (r *graphRegistry) infos() []GraphInfo {
	entries := r.list()
	out := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// degraded reports whether any registered graph has no serving snapshot.
func (r *graphRegistry) degraded() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if e.cur.Load() == nil {
			return true
		}
	}
	return false
}

// close retires every snapshot, releasing the registry's base references
// so fully drained graphs free.
func (r *graphRegistry) close() {
	r.closed.Store(true)
	for _, e := range r.list() {
		if old := e.cur.Swap(nil); old != nil {
			r.metrics.snapshotsRetired.Add(1)
			old.release()
		}
	}
	r.shapeEpoch.Add(1)
}

// ReloadResult is one graph's outcome in a reload pass.
type ReloadResult struct {
	Graph string `json:"graph"`
	// Gen is the serving generation after the attempt: bumped on success,
	// unchanged on rollback, 0 when the graph has never served.
	Gen uint64 `json:"gen"`
	// Status is the graph's post-attempt state (serving | failed).
	Status string `json:"status"`
	// Error is the load/validate failure that rolled this graph back
	// (empty on success).
	Error      string  `json:"error,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// ReloadReport summarizes one reload pass over every registered graph.
type ReloadReport struct {
	OK      int            `json:"ok"`
	Failed  int            `json:"failed"`
	Results []ReloadResult `json:"results"`
}

// Reload re-runs every registered source through load → validate → swap.
// Each graph succeeds or rolls back independently: a failure leaves that
// graph's current snapshot serving (or the graph failed if it never
// served) and records the structured reason; old snapshots retire and
// free only after their last in-flight query releases. Reload passes are
// serialized; concurrent calls queue behind the mutex.
func (s *Server) Reload(ctx context.Context) ReloadReport {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	var rep ReloadReport
	for _, e := range s.registry.list() {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		start := time.Now()
		err := s.registry.install(e)
		res := ReloadResult{Graph: e.name, DurationMS: float64(time.Since(start).Nanoseconds()) / 1e6}
		if err != nil {
			s.metrics.reloadFailures.Add(1)
			res.Error = err.Error()
			rep.Failed++
		} else {
			s.metrics.reloads.Add(1)
			rep.OK++
		}
		gi := e.info()
		res.Gen, res.Status = gi.Gen, gi.Status
		rep.Results = append(rep.Results, res)
	}
	return rep
}
