// Package par provides the parallel-execution substrate used by the matvec
// kernels: a bounded worker model, chunked and per-worker parallel-for, and
// a parallel prefix sum.
//
// The paper's implementation targets an NVIDIA K40c GPU; this package is the
// CPU substitute. Kernels written against par preserve the paper's
// scan-gather-sort structure (Algorithm 3): par.ExclusiveScan plays the role
// of the device-wide prefix sum and par.For the role of a grid-stride loop.
//
// Dispatch is allocation-free in steady state: work is described by recycled
// job records and executed by a set of persistent parked workers, so a
// kernel invoked millions of times (the BFS/PageRank inner loop) never pays
// a per-call goroutine spawn or closure allocation inside par itself.
// Callers that also want zero allocations must pass long-lived func values
// (see internal/core's Workspace, which pins its loop bodies), because a
// func literal handed to For escapes into the job record.
//
// Faults and cancellation: a panic in a loop body never kills a parked
// worker or deadlocks a dispatcher. The first panic (value + stack) is
// captured into the job record, remaining chunks drain as no-ops, and the
// fault is re-raised on the *dispatching* goroutine as a *PanicError once
// every chunk is accounted for. Cancellation is cooperative: ForCancel and
// ForWorkerCancel stop claiming new chunks once their Token trips; chunks
// already running finish, and the call returns normally with the loop only
// partially executed — the caller owns the post-loop token check.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pushpull/internal/faultinject"
)

// maxWorkers caps concurrency for all helpers in this package. It defaults
// to GOMAXPROCS and can be lowered (e.g. to 1 for deterministic profiling)
// with SetMaxWorkers.
var maxWorkers atomic.Int64

func init() { maxWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetMaxWorkers bounds the number of concurrent workers used by For,
// ForWorker and ExclusiveScan. n < 1 is treated as 1. It returns the
// previous value.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers reports the current worker bound.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// DefaultGrain is the minimum chunk size For assigns to a worker when the
// caller passes grain <= 0. It is sized so per-chunk dispatch overhead is
// negligible against even the cheapest per-element loop bodies.
const DefaultGrain = 2048

// PanicError is the fault a dispatching goroutine re-raises when a loop body
// panicked during parallel execution: the first panic value captured, plus
// the stack of the goroutine it happened on (captured at recover time, so it
// points into the failing body, not into the dispatcher).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: loop body panicked: %v", e.Value)
}

// Token is a cooperative cancellation signal checked at chunk-claim
// boundaries. It can be tripped directly (Trip) or bound to a context, in
// which case the first Cancelled call that observes the context done latches
// the trip so later checks are a single atomic load. The zero check path
// never allocates. A nil *Token is valid and never cancels.
//
// A Token is safe for concurrent Cancelled/Trip calls, but like a Workspace
// it is owned by one logical operation at a time: do not share one token
// across unrelated dispatches that should cancel independently.
type Token struct {
	tripped atomic.Bool
	ctx     context.Context
}

// NewToken returns a token that reports cancelled once ctx is done (or Trip
// is called). ctx may be nil for a purely manual token.
func NewToken(ctx context.Context) *Token { return &Token{ctx: ctx} }

// Reset re-arms the token for a new operation over ctx, as if it had just
// been made by NewToken: the owner of a long-lived token resets it between
// operations instead of allocating one per operation. Call it only while no
// dispatch is using the token.
func (t *Token) Reset(ctx context.Context) {
	t.tripped.Store(false)
	t.ctx = ctx
}

// Trip cancels the token directly. nil-safe.
func (t *Token) Trip() {
	if t != nil {
		t.tripped.Store(true)
	}
}

// Cancelled reports whether the token has tripped or its context is done.
// nil-safe and allocation-free — it is called on every chunk claim.
func (t *Token) Cancelled() bool {
	if t == nil {
		return false
	}
	if t.tripped.Load() {
		return true
	}
	if t.ctx != nil && t.ctx.Err() != nil {
		t.tripped.Store(true)
		return true
	}
	return false
}

// Context returns the context the token was built over (nil for a manual or
// nil token).
func (t *Token) Context() context.Context {
	if t == nil {
		return nil
	}
	return t.ctx
}

// job describes one parallel loop. Exactly one of body (dynamic chunks,
// For) and wbody (static spans, ForWorker) is set. Job records are recycled
// (see freeJobs) and reference-counted: refs is 0 while the record is free
// or being prepared, the dispatching goroutine publishes the loop by storing
// 1, and a parked worker must acquire a reference before it touches any
// other field. Queue entries are only wake-up hints and hold no reference,
// so a dispatcher whose hints were never serviced gets its record back the
// moment the loop ends — recycling does not wait on another goroutine being
// scheduled. A stale hint finds refs == 0 and is dropped, or finds the
// record describing a later loop and helps with that one.
type job struct {
	refs   atomic.Int64
	next   atomic.Int64               // next chunk/span to claim
	fault  atomic.Pointer[PanicError] // first body panic, CAS-claimed
	tok    *Token                     // optional cooperative cancellation
	wg     sync.WaitGroup             // counts *chunks*, not workers: Wait returns when the loop is done even if queued entries were never picked up
	body   func(lo, hi int)
	wbody  func(worker, lo, hi int)
	n      int
	grain  int
	chunks int
}

// freeJobs is the job-record free list: a fixed-capacity channel rather than
// a sync.Pool, because the last reference may be dropped by a parked worker
// on a different P than the dispatcher that wants a record next — a per-P
// pool (which the GC may also clear) makes that dispatcher's hit a matter of
// luck, and the zero-alloc steady state must hold at any GOMAXPROCS. One
// slot per possible parked worker bounds the records concurrent dispatchers
// can have in flight; past that a record is allocated and later dropped.
var freeJobs = make(chan *job, maxParked)

func getJob() *job {
	select {
	case j := <-freeJobs:
		return j
	default:
		return new(job)
	}
}

// jobs is the parked workers' shared queue. Buffered generously so
// dispatchers never block on send: an entry is only a wake-up hint — the
// dispatching goroutine claims chunks itself, so a hint that is never
// serviced costs nothing.
var (
	jobs        chan *job
	workersOnce sync.Once
	spawned     atomic.Int64
)

// maxParked bounds the number of persistent worker goroutines.
const maxParked = 256

// ParkedWorkers reports how many persistent worker goroutines have been
// spawned so far. Workers are never retired, so a stable value across a
// stress run is the no-goroutine-leak invariant the fault-injection suite
// asserts.
func ParkedWorkers() int { return int(spawned.Load()) }

func ensureWorkers(want int) {
	workersOnce.Do(func() { jobs = make(chan *job, 4*maxParked) })
	if want > maxParked {
		want = maxParked
	}
	for int(spawned.Load()) < want {
		if n := spawned.Add(1); int(n) <= want {
			go parkedWorker()
		} else {
			spawned.Add(-1)
			break
		}
	}
}

func parkedWorker() {
	for j := range jobs {
		if j.acquire() {
			runChunks(j)
			releaseJob(j)
		}
	}
}

// acquire takes a reference on j if it currently describes a published
// loop; the successful CAS orders the caller after the dispatcher's
// publishing store, so the loop's fields are safe to read.
func (j *job) acquire() bool {
	for {
		r := j.refs.Load()
		if r == 0 {
			return false
		}
		if j.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// runChunks claims and executes chunks of j until none remain. Both the
// dispatcher and any parked worker that received a queue entry run this, so
// the loop completes even when every parked worker is busy elsewhere. Once a
// fault is recorded or the job's token trips, remaining chunks drain as
// no-ops — each still claimed and Done'd, so the chunk accounting (and with
// it dispatch's Wait) always closes out.
func runChunks(j *job) {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		if j.fault.Load() != nil || j.tok.Cancelled() {
			j.wg.Done()
			continue
		}
		j.runChunk(c)
	}
}

// runChunk executes one claimed chunk. A body panic is recovered here — on
// whichever goroutine ran the chunk — and CAS-published as the job's first
// fault; the deferred Done runs either way, so a panicking body can neither
// kill a parked worker nor strand the dispatcher in Wait.
func (j *job) runChunk(c int) {
	defer func() {
		if r := recover(); r != nil {
			j.fault.CompareAndSwap(nil, &PanicError{Value: r, Stack: debug.Stack()})
		}
		j.wg.Done()
	}()
	faultinject.Fire(faultinject.SiteParChunk)
	if j.body != nil {
		lo := c * j.grain
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.body(lo, hi)
	} else {
		lo := c * j.n / j.chunks
		hi := (c + 1) * j.n / j.chunks
		j.wbody(c, lo, hi)
	}
}

func releaseJob(j *job) {
	if j.refs.Add(-1) == 0 {
		j.body, j.wbody, j.tok = nil, nil, nil
		j.fault.Store(nil)
		select {
		case freeJobs <- j:
		default: // free list full: let the GC have it
		}
	}
}

// dispatch runs a prepared job: the caller participates in chunk-stealing
// and queue entries wake up to `helpers` parked workers. It returns after
// every chunk has executed (or drained). If any chunk body panicked, the
// captured first fault is re-raised here, on the dispatching goroutine —
// the parked workers have already recovered and moved on.
func dispatch(j *job, helpers int) {
	ensureWorkers(helpers)
	j.wg.Add(j.chunks)
	j.next.Store(0)
	j.refs.Store(1) // publish: from here parked workers may acquire j
	for i := 0; i < helpers; i++ {
		select {
		case jobs <- j:
		default:
			// Queue full: the caller and already-woken workers will
			// finish the loop on their own.
			i = helpers
		}
	}
	runChunks(j)
	j.wg.Wait()
	fault := j.fault.Load()
	releaseJob(j)
	if fault != nil {
		panic(fault)
	}
}

// For executes body over [0, n) in parallel chunks of at least grain
// elements. body receives half-open ranges [lo, hi). Chunks are distributed
// dynamically (atomic counter) so irregular per-element costs — the norm for
// power-law graph rows — balance across workers. For n below grain, or with
// a single worker, body runs inline on the caller's goroutine. The caller
// always participates in execution, so For completes even if every parked
// worker is busy.
//
// If body panics on a parked worker, For panics on the calling goroutine
// with a *PanicError wrapping the first panic value and its stack; the
// inline single-worker path lets the original panic value through
// unwrapped. Either way the substrate stays usable.
func For(n, grain int, body func(lo, hi int)) {
	ForCancel(nil, n, grain, body)
}

// ForCancel is For with a cooperative cancellation token: once tok trips (or
// its bound context is done), no further chunks are claimed; chunks already
// running finish. Cancellation is quiet — ForCancel returns normally with
// the loop only partially executed, so the caller must check tok (or its
// context) after the loop before trusting the output. A nil tok never
// cancels.
func ForCancel(tok *Token, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	workers := MaxWorkers()
	if workers == 1 || n <= grain {
		if !tok.Cancelled() {
			body(0, n)
		}
		return
	}
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	j := getJob()
	j.body, j.wbody, j.tok = body, nil, tok
	j.n, j.grain, j.chunks = n, grain, chunks
	dispatch(j, workers-1)
}

// ForWorker statically partitions [0, n) into one contiguous span per
// worker and runs body(worker, lo, hi) on each. Unlike For, the worker
// index is stable and unique per span, which lets bodies accumulate into
// per-worker scratch (histograms, partial sums) without atomics. It returns
// the number of spans used; spans are empty-free (every span gets >= 1
// element) so callers may size scratch by the return value.
//
// Spans are claimed dynamically from the same queue as For's chunks: the
// index identifies the *span* (and its scratch slot), not the OS thread, so
// correctness does not depend on a particular number of goroutines being
// free. Panics propagate like For's.
func ForWorker(n int, body func(worker, lo, hi int)) int {
	return ForWorkerCancel(nil, n, body)
}

// ForWorkerCancel is ForWorker with a cooperative cancellation token; spans
// not yet claimed when tok trips never run (their scratch slots are left
// untouched), so the span count it returns only bounds the slots that *may*
// have been written. A nil tok never cancels.
func ForWorkerCancel(tok *Token, n int, body func(worker, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	forSpans(tok, n, workers, body)
	return workers
}

// forSpans runs body over exactly `spans` static spans. The span count is
// fixed by the caller rather than re-read from MaxWorkers, so multi-phase
// span algorithms (ExclusiveScan's sum-then-rescan) stay consistent even if
// SetMaxWorkers moves between phases.
func forSpans(tok *Token, n, spans int, body func(worker, lo, hi int)) {
	if spans <= 1 {
		if !tok.Cancelled() {
			body(0, 0, n)
		}
		return
	}
	j := getJob()
	j.body, j.wbody, j.tok = nil, body, tok
	j.n, j.grain, j.chunks = n, 0, spans
	dispatch(j, spans-1)
}

// redScratch is the pooled state for the parallel scan: the per-span
// partials plus *pinned* span bodies, created once per pooled object and
// re-aimed at each call's operands — so ExclusiveScan is allocation-free in
// steady state (it used to pay a make([]int, workers) plus two closure
// allocations per call).
type redScratch struct {
	xs      []int
	partial []int

	sumBody  func(w, lo, hi int) // partial[w] = Σ xs[span]
	scanBody func(w, lo, hi int) // local exclusive scan seeded from partial[w]
}

var redPool = sync.Pool{New: func() any {
	rs := &redScratch{}
	rs.sumBody = func(w, lo, hi int) {
		xs := rs.xs
		s := 0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		rs.partial[w] = s
	}
	rs.scanBody = func(w, lo, hi int) {
		xs := rs.xs
		s := rs.partial[w]
		for i := lo; i < hi; i++ {
			xs[i], s = s, s+xs[i]
		}
	}
	return rs
}}

func acquireRed(spans int) *redScratch {
	rs := redPool.Get().(*redScratch)
	if cap(rs.partial) < spans {
		rs.partial = make([]int, spans)
	}
	rs.partial = rs.partial[:spans]
	return rs
}

func (rs *redScratch) release() {
	rs.xs = nil
	redPool.Put(rs)
}

// ExclusiveScan replaces xs with its exclusive prefix sum and returns the
// total. It is the device-wide scan of Algorithm 3 Line 5: feeding it the
// per-vertex neighbour-list lengths yields each list's offset in the
// concatenated gather output.
//
// The parallel path is a standard two-pass blocked scan: per-block sums,
// sequential scan of the (small) block-sum array, then per-block local
// scans seeded with the block offsets. Both passes run over the same fixed
// span partition, so the scan stays correct even if SetMaxWorkers changes
// concurrently.
func ExclusiveScan(xs []int) int {
	n := len(xs)
	if n == 0 {
		return 0
	}
	workers := MaxWorkers()
	const minParallelScan = 1 << 14
	if workers == 1 || n < minParallelScan {
		return ExclusiveScanSequential(xs)
	}
	spans := workers
	if spans > n {
		spans = n
	}
	rs := acquireRed(spans)
	rs.xs = xs
	forSpans(nil, n, spans, rs.sumBody)
	total := 0
	for w := 0; w < spans; w++ {
		rs.partial[w], total = total, total+rs.partial[w]
	}
	forSpans(nil, n, spans, rs.scanBody)
	rs.release()
	return total
}

// ExclusiveScanSequential is the single-threaded scan. Workspace-backed
// kernels use it directly: the scan is O(nnz(f)) against the gather/sort
// work's O(d·nnz(f)·logM), and the sequential form needs no scratch.
func ExclusiveScanSequential(xs []int) int {
	sum := 0
	for i, x := range xs {
		xs[i] = sum
		sum += x
	}
	return sum
}
