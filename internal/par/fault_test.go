package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForPanicPropagatesAsPanicError: a body panic on the chunked dispatch
// path must re-raise on the calling goroutine as a *PanicError carrying the
// first panic value and the failing goroutine's stack.
func TestForPanicPropagatesAsPanicError(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", r, r)
		}
		if pe.Value != "boom" {
			t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack is empty")
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("PanicError.Error() = %q, want it to mention the value", pe.Error())
		}
	}()
	For(1000, 4, func(lo, hi int) { panic("boom") })
	t.Fatal("For returned instead of panicking")
}

// TestForPanicInlineUnwrapped: the single-worker inline path lets the
// original panic value through without wrapping.
func TestForPanicInlineUnwrapped(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	defer func() {
		if r := recover(); r != "raw" {
			t.Fatalf("recovered %v, want raw panic value", r)
		}
	}()
	For(10, 0, func(lo, hi int) { panic("raw") })
}

// TestSubstrateSurvivesPanics: repeated body panics must neither kill
// parked workers nor corrupt the job pool — later loops run correctly and
// the worker count stays flat (no leak, no respawn).
func TestSubstrateSurvivesPanics(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	// Warm the worker set so the baseline is stable.
	For(4*DefaultGrain, 0, func(lo, hi int) {})
	base := ParkedWorkers()
	for round := 0; round < 20; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panicking loop did not propagate")
				}
			}()
			For(1000, 4, func(lo, hi int) { panic(round) })
		}()
		n := 3000 + round
		hits := make([]int32, n)
		For(n, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: index %d visited %d times after panic", round, i, h)
			}
		}
	}
	if got := ParkedWorkers(); got != base {
		t.Fatalf("ParkedWorkers = %d after panics, was %d (leak or worker death)", got, base)
	}
}

// TestForWorkerPanicPropagates covers the span-mode dispatch path.
func TestForWorkerPanicPropagates(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("ForWorker panic not wrapped as *PanicError")
		}
	}()
	ForWorker(1<<12, func(w, lo, hi int) { panic("span boom") })
}

// TestForCancelPreTripped: a token tripped before the call means no body
// runs at all, on both the inline and the dispatch path.
func TestForCancelPreTripped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prev := SetMaxWorkers(workers)
		tok := NewToken(nil)
		tok.Trip()
		var ran atomic.Int64
		ForCancel(tok, 10000, 8, func(lo, hi int) { ran.Add(int64(hi - lo)) })
		used := ForWorkerCancel(tok, 10000, func(w, lo, hi int) { ran.Add(int64(hi - lo)) })
		SetMaxWorkers(prev)
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d elements ran under a pre-tripped token", workers, ran.Load())
		}
		if used < 0 || used > 10000 {
			t.Fatalf("workers=%d: span count %d out of range", workers, used)
		}
	}
}

// TestForCancelMidLoop: tripping the token from inside the first chunk must
// stop further chunk claims — the loop returns normally, partially executed.
func TestForCancelMidLoop(t *testing.T) {
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	tok := NewToken(nil)
	var ran atomic.Int64
	n := 100000
	ForCancel(tok, n, 10, func(lo, hi int) {
		tok.Trip()
		ran.Add(int64(hi - lo))
	})
	if got := ran.Load(); got == 0 || got >= int64(n) {
		t.Fatalf("cancelled loop ran %d of %d elements, want partial", got, n)
	}
	if !tok.Cancelled() {
		t.Fatal("token not cancelled after Trip")
	}
}

// TestTokenContextLatch: a context-bound token latches the first done
// observation; nil tokens are inert and safe.
func TestTokenContextLatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tok := NewToken(ctx)
	if tok.Cancelled() {
		t.Fatal("fresh token reports cancelled")
	}
	if tok.Context() != ctx {
		t.Fatal("Context() does not round-trip")
	}
	cancel()
	if !tok.Cancelled() {
		t.Fatal("token did not observe context cancellation")
	}
	if !tok.tripped.Load() {
		t.Fatal("context observation did not latch")
	}

	var nilTok *Token
	nilTok.Trip() // must not panic
	if nilTok.Cancelled() {
		t.Fatal("nil token reports cancelled")
	}
	if nilTok.Context() != nil {
		t.Fatal("nil token has a context")
	}
}

// TestConcurrentSetMaxWorkers hammers the worker bound while loops and
// scans are in flight: every result must stay exact regardless of
// where the bound moves mid-call (the two-pass scan runs both phases over
// one fixed span partition).
func TestConcurrentSetMaxWorkers(t *testing.T) {
	prev := MaxWorkers()
	defer SetMaxWorkers(prev)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			w = w%8 + 1
			SetMaxWorkers(w)
			runtime.Gosched()
		}
	}()

	n := 1 << 15
	xs := make([]int, n)
	wantSum := 0
	for i := range xs {
		xs[i] = i & 7
		wantSum += xs[i]
	}
	scanBuf := make([]int, n)
	for round := 0; round < 50; round++ {
		var covered atomic.Int64
		For(n, 16, func(lo, hi int) { covered.Add(int64(hi - lo)) })
		if covered.Load() != int64(n) {
			t.Fatalf("round %d: For covered %d of %d", round, covered.Load(), n)
		}
		copy(scanBuf, xs)
		if got := ExclusiveScan(scanBuf); got != wantSum {
			t.Fatalf("round %d: scan total=%d want %d", round, got, wantSum)
		}
		if scanBuf[1] != xs[0] || scanBuf[n-1] != wantSum-xs[n-1] {
			t.Fatalf("round %d: scan output corrupted", round)
		}
	}
	close(stop)
	wg.Wait()
}

// hangLimit bounds every wait in the white-box dispatch tests: a wait that
// runs past it fails the test with a dump of every goroutine instead of
// hanging the binary.
const hangLimit = 10 * time.Second

func failHung(t *testing.T, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	t.Fatalf("timed out after %v waiting for %s; goroutines:\n%s", hangLimit, what, buf[:runtime.Stack(buf, true)])
}

// waitFor polls cond until it holds, yielding between polls.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hangLimit)
	for !cond() {
		if time.Now().After(deadline) {
			failHung(t, what)
		}
		runtime.Gosched()
	}
}

// sendHint queues a wake-up hint for j the way dispatch does, but waits
// for room instead of dropping it.
func sendHint(t *testing.T, j *job) {
	t.Helper()
	select {
	case jobs <- j:
	case <-time.After(hangLimit):
		failHung(t, "room in the job queue")
	}
}

// TestDispatchQueueFullFallback (white-box): with every parked worker
// blocked and the job queue stuffed full, dispatch's non-blocking send must
// hit its default branch and the calling goroutine must complete the whole
// loop alone.
//
// Loops that ran before this test may have left the queue full of wake-up
// hints: dispatch never waits for its hints to be serviced, and on a busy
// host the dispatcher finishes loop after loop before a parked worker is
// scheduled. Those hints point at recycled job records, and the blocker is
// one. A worker that dequeued such a hint before the warm-up For refilled
// the queue acquires the blocker once it is published, so it blocks
// without making room for the test's hints; the other workers block on
// further stale hints, and the test's last send waits on a full queue that
// no worker drains. The test therefore publishes the blocker only after
// the queue has drained, and bounds every wait.
func TestDispatchQueueFullFallback(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	// Ensure the queue exists and some workers are parked.
	For(4*DefaultGrain, 0, func(lo, hi int) {})
	nw := int(spawned.Load())
	if nw == 0 {
		t.Fatal("no parked workers spawned")
	}
	waitFor(t, "stale wake-up hints to drain", func() bool { return len(jobs) == 0 })

	// Block every parked worker: one blocking chunk per worker, claimed as
	// soon as the worker wakes, held until release closes. release also
	// closes if the test fails, so no worker stays blocked behind it.
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	var blocked atomic.Int64
	blocker := getJob()
	blocker.body = func(lo, hi int) {
		blocked.Add(1)
		<-release
	}
	blocker.wbody, blocker.tok = nil, nil
	blocker.n, blocker.grain, blocker.chunks = nw, 1, nw
	blocker.next.Store(0)
	blocker.wg.Add(nw)
	blocker.refs.Store(1) // our handle; each woken worker acquires its own
	for i := 0; i < nw; i++ {
		sendHint(t, blocker)
	}
	waitFor(t, "every parked worker to block", func() bool { return int(blocked.Load()) == nw })

	// Stuff the queue with an inert job (zero chunks: workers that ever
	// drain it do no work).
	filler := getJob()
	filler.body = func(lo, hi int) {}
	filler.wbody, filler.tok = nil, nil
	filler.n, filler.grain, filler.chunks = 0, 1, 0
	filler.next.Store(0)
	filler.refs.Store(1)
	sent := 0
fill:
	for {
		select {
		case jobs <- filler:
			sent++
		default:
			break fill
		}
	}
	if sent == 0 || len(jobs) != cap(jobs) {
		t.Fatalf("queue not full after %d sends (len %d, cap %d)", sent, len(jobs), cap(jobs))
	}

	// The queue is full and every worker is blocked: this For must take the
	// caller-only fallback and still cover the range exactly.
	n := 5 * DefaultGrain
	var covered atomic.Int64
	For(n, 0, func(lo, hi int) { covered.Add(int64(hi - lo)) })
	if covered.Load() != int64(n) {
		t.Fatalf("queue-full For covered %d of %d", covered.Load(), n)
	}

	// Unblock and drain: workers finish the blocker, then consume the
	// filler entries as no-ops; refcounts return both jobs to the pool.
	unblock()
	done := make(chan struct{})
	go func() { blocker.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(hangLimit):
		failHung(t, "the blocker's chunks to finish")
	}
	releaseJob(blocker)
	waitFor(t, "the filler hints to drain", func() bool { return len(jobs) == 0 })
	releaseJob(filler)

	// The substrate must be fully serviceable again.
	hits := make([]int32, 3*DefaultGrain)
	For(len(hits), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("post-drain index %d visited %d times", i, h)
		}
	}
}

// TestReductionsAllocFree: ExclusiveScan must be allocation-free in steady
// state on the parallel path (pooled per-span scratch with pinned bodies —
// the fix for the per-call make+closures).
func TestReductionsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; alloc guard is meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	n := 1 << 16 // above minParallelScan
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i & 3
	}
	if avg := testing.AllocsPerRun(10, func() { ExclusiveScan(xs) }); avg != 0 {
		t.Errorf("ExclusiveScan: %v allocs/op in steady state, want 0", avg)
	}
}
