package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pushpull/graphblas"
)

// TestCloseDoHammer is the shutdown-race regression test: clients spinning
// Do while Close runs concurrently. The old channel-based queue could
// panic here (send on closed channel); the scheduler's mutex makes the
// race benign — a racing submission either lands (and drains) or fails
// with ErrShuttingDown. Run under -race.
func TestCloseDoHammer(t *testing.T) {
	for round := 0; round < 4; round++ {
		srv, err := New(Config{Workers: 2, QueueDepth: 8}, kronGraph(t, 6))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs"})
					switch {
					case err == nil, errors.Is(err, ErrQueueFull):
						continue
					case errors.Is(err, ErrShuttingDown):
						return
					default:
						errs <- fmt.Errorf("unexpected Do error during shutdown: %w", err)
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		srv.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// TestResolveAfterCloseIsShuttingDown pins down the race TestCloseDoHammer
// can only hit at random: a Do that passed its closed check before Close
// retired every snapshot must report the shutdown, not a graph that failed
// to load.
func TestResolveAfterCloseIsShuttingDown(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, _, err := srv.resolve(Request{Graph: "kron", Algo: "bfs"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("resolve after Close: %v, want ErrShuttingDown", err)
	}
}

// TestInfeasibleDeadlineShed: once the predictor has evidence that a
// query costs more than the request's deadline allows, admission
// fast-fails with ErrInfeasibleDeadline (429) and an honest
// prediction-derived Retry-After — instead of admitting the query to
// time out in line.
func TestInfeasibleDeadlineShed(t *testing.T) {
	srv, err := New(Config{Workers: 1}, pathGraph(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Prime the predictor: bfs on this graph "costs" 500ms.
	srv.pred.observe("path", "bfs", 0, float64(500*time.Millisecond))

	_, err = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrInfeasibleDeadline) {
		t.Fatalf("Do: %v, want ErrInfeasibleDeadline", err)
	}
	if got := HTTPStatus(err); got != http.StatusTooManyRequests {
		t.Errorf("HTTPStatus = %d, want 429", got)
	}
	secs, ok := RetryAfterHint(err)
	if !ok || secs < minRetrySeconds || secs > maxRetrySeconds {
		t.Errorf("RetryAfterHint = (%d, %v), want a hint in [1, 60]", secs, ok)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Admission.ShedInfeasible != 1 {
		t.Errorf("shed_infeasible = %d, want 1", snap.Admission.ShedInfeasible)
	}
	if snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1 (infeasible sheds count)", snap.Rejected)
	}

	// A generous deadline admits the same query.
	if _, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 10 * time.Second}); err != nil {
		t.Fatalf("feasible deadline: %v", err)
	}
}

// occupyWorker parks a one-worker server's worker inside a query until the
// returned release is called, so later queries queue behind it for as
// long as the test needs.
func occupyWorker(t *testing.T, srv *Server, graph string) (release func()) {
	t.Helper()
	snap, err := srv.registry.acquire(graph)
	if err != nil {
		t.Fatal(err)
	}
	started, gate := make(chan struct{}), make(chan struct{})
	blocker := &task{
		snap: snap, client: context.Background(), done: make(chan outcome, 1),
		started: time.Now(), deadline: time.Now().Add(time.Hour),
		r: &runner{name: "bfs", run: func(context.Context, *Graph, Request, *worker) (Payload, error) {
			close(started)
			<-gate
			return Payload{}, nil
		}},
	}
	if err := srv.sched.push(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	return func() { close(gate) }
}

// queueFullHint builds a one-worker server whose predictor has observed
// samples (ns) for path/bfs, parks the worker, fills a queue of the given
// depth through Do, and returns the Retry-After hint the next query's
// ErrQueueFull shed carries.
func queueFullHint(t *testing.T, depth int, samples ...float64) int {
	t.Helper()
	srv, err := New(Config{Workers: 1, QueueDepth: depth}, pathGraph(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, ns := range samples {
		srv.pred.observe("path", "bfs", 0, ns)
	}
	release := occupyWorker(t, srv, "path")
	var wg sync.WaitGroup
	defer wg.Wait()
	defer release()
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs"})
		}()
	}
	waitFor(t, "queue to fill", func() bool { return srv.sched.depth() == depth })

	_, err = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("depth %d: Do = %v, want ErrQueueFull", depth, err)
	}
	secs, ok := RetryAfterHint(err)
	if !ok || secs < minRetrySeconds || secs > maxRetrySeconds {
		t.Fatalf("depth %d: RetryAfterHint = (%d, %v), want a hint in [1, 60]", depth, secs, ok)
	}
	return secs
}

// TestRetryAfterMonotonicInDepth: a queue-full shed's Retry-After is the
// queued backlog's predicted drain over the pool width, read at the moment
// of the shed — the floor while nothing queued has a prediction — so more
// queued work never tells a backing-off client to return sooner.
func TestRetryAfterMonotonicInDepth(t *testing.T) {
	if got := queueFullHint(t, 2); got != minRetrySeconds {
		t.Errorf("unpriced backlog: hint %d s, want the %d s floor", got, minRetrySeconds)
	}
	prev := 0
	for _, c := range []struct{ depth, want int }{{1, 3}, {2, 6}, {4, 12}} {
		got := queueFullHint(t, c.depth, 3e9) // each queued query priced at 3 s
		if got != c.want {
			t.Errorf("depth %d: hint %d s, want %d", c.depth, got, c.want)
		}
		if got < prev {
			t.Errorf("depth %d: hint %d s < previous %d s", c.depth, got, prev)
		}
		prev = got
	}
}

// TestRetryAfterTracksObservedLatency: at a fixed queue depth the hint
// follows the measured-runtime EWMA the queued queries were priced at —
// a blend of the samples, not the last one.
func TestRetryAfterTracksObservedLatency(t *testing.T) {
	cases := []struct {
		samples []float64
		want    int
	}{
		{[]float64{1e9}, 2},
		{[]float64{2e9}, 4},
		{[]float64{2e9, 6e9}, 6}, // EWMA 2 s + 0.25 × 4 s = 3 s
	}
	for _, c := range cases {
		if got := queueFullHint(t, 2, c.samples...); got != c.want {
			t.Errorf("samples %v: hint %d s, want %d", c.samples, got, c.want)
		}
	}
}

// TestBudgetTrip: a query exceeding its execution budget is cancelled
// with graphblas.ErrBudgetExceeded (598, not 504 — its deadline did not
// pass), ships its coherent partial progress marked Partial, and counts
// in both the per-algo and admission budget counters.
func TestBudgetTrip(t *testing.T) {
	srv, err := New(Config{Workers: 1, MinBudget: time.Millisecond}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Prime the predictor so the budget has something to scale: a
	// prediction whose budget is 1ms — the real traversal takes far longer.
	srv.pred.observe("path", "bfs", 0, float64(time.Millisecond)/budgetMultiple)

	res, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 10 * time.Second})
	if !errors.Is(err, graphblas.ErrBudgetExceeded) {
		t.Fatalf("Do: %v, want ErrBudgetExceeded", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Error("budget trip must not match context.DeadlineExceeded (the query's deadline did not pass)")
	}
	if got := HTTPStatus(err); got != StatusBudgetExceeded {
		t.Errorf("HTTPStatus = %d, want %d", got, StatusBudgetExceeded)
	}
	if !res.Partial {
		t.Error("result not marked Partial")
	}
	if res.Payload.Reached == 0 {
		t.Error("partial payload empty: budget trips must ship the progress paid for")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Admission.BudgetTrips != 1 {
		t.Errorf("budget_trips = %d, want 1", snap.Admission.BudgetTrips)
	}
	if snap.Algorithms["bfs"].Budget != 1 {
		t.Errorf("bfs budget count = %d, want 1", snap.Algorithms["bfs"].Budget)
	}
	if snap.Algorithms["bfs"].Deadline != 0 {
		t.Errorf("bfs deadline count = %d, want 0 (trip must not masquerade as timeout)", snap.Algorithms["bfs"].Deadline)
	}
}

// TestQueueShedSplitFromRunHistogram is the Retry-After skew regression:
// a query whose deadline expires while queued lands in the queue-shed
// outcome and the queue-wait histogram — never in the run histogram the
// drain estimator reads.
func TestQueueShedSplitFromRunHistogram(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 4}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = srv.Do(ctx, Request{Graph: "path", Algo: "bfs"})
	}()
	waitFor(t, "blocker to start running", func() bool {
		for _, q := range srv.Queries() {
			if q.State == "running" {
				return true
			}
		}
		return false
	})

	// Admitted behind the blocker with a deadline shorter than any
	// realistic queue wait: it expires in the queue.
	wg.Add(1)
	var shedErr error
	go func() {
		defer wg.Done()
		_, shedErr = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: time.Millisecond})
	}()
	waitFor(t, "victim to queue", func() bool {
		return srv.Metrics().Snapshot().QueueDepth == 1
	})
	time.Sleep(5 * time.Millisecond) // let its deadline lapse in the queue
	cancel()                         // unblock the worker; it claims and sheds the victim
	wg.Wait()

	if !errors.Is(shedErr, context.DeadlineExceeded) {
		t.Fatalf("victim error: %v, want DeadlineExceeded", shedErr)
	}
	snap := srv.Metrics().Snapshot()
	bfs := snap.Algorithms["bfs"]
	if bfs.QueueShed != 1 {
		t.Errorf("queue_shed = %d, want 1", bfs.QueueShed)
	}
	if snap.Admission.ShedInQueue != 1 {
		t.Errorf("admission shed_in_queue = %d, want 1", snap.Admission.ShedInQueue)
	}
	var ran, waited uint64
	for _, b := range bfs.LatencyBuckets {
		ran += b
	}
	for _, b := range bfs.QueueWaitBuckets {
		waited += b
	}
	// Only the cancelled blocker ran; the shed victim shows up in the
	// queue-wait histogram but not the run histogram.
	if ran != 1 {
		t.Errorf("run histogram holds %d queries, want 1 (the blocker)", ran)
	}
	if waited != 2 {
		t.Errorf("queue-wait histogram holds %d queries, want 2", waited)
	}
}

// TestBadClassRejected: an unknown scheduling class is a 400 before
// touching the queue.
func TestBadClassRejected(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", Class: "bulk"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Do: %v, want ErrBadRequest", err)
	}
	if got := HTTPStatus(err); got != http.StatusBadRequest {
		t.Errorf("HTTPStatus = %d, want 400", got)
	}
}

// TestOverloadStressConservation floods a small pool with mixed-class,
// mixed-deadline traffic and then checks outcome conservation: every
// submitted query is accounted for exactly once across the shed taxonomy
// and the per-algorithm outcome counters. Run under -race — this is also
// the scheduler/predictor concurrency stress.
func TestOverloadStressConservation(t *testing.T) {
	srv, err := New(Config{Workers: 2, QueueDepth: 4}, kronGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}

	algos := AlgorithmNames()
	var wg sync.WaitGroup
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := Request{Graph: "kron", Algo: algos[(c+i)%len(algos)]}
				if c%2 == 0 {
					req.Class = ClassBatch
				}
				if i%3 == 0 {
					req.Timeout = 500 * time.Microsecond // tight: deadline/infeasible fodder
				}
				_, _ = srv.Do(context.Background(), req)
			}
		}(c)
	}
	wg.Wait()
	srv.Close() // drains every admitted task before returning

	snap := srv.Metrics().Snapshot()
	var outcomes uint64
	for _, as := range snap.Algorithms {
		outcomes += as.OK + as.Errors + as.Cancelled + as.Deadline + as.Budget + as.Panics + as.QueueShed
	}
	accounted := outcomes + snap.Admission.ShedFull + snap.Admission.ShedInfeasible
	if accounted != snap.Submitted {
		t.Errorf("conservation: submitted %d, accounted %d (outcomes %d, sheds full=%d infeasible=%d)",
			snap.Submitted, accounted, outcomes, snap.Admission.ShedFull, snap.Admission.ShedInfeasible)
	}
	if snap.Submitted != 24*6 {
		t.Errorf("submitted = %d, want %d", snap.Submitted, 24*6)
	}
	if snap.Admission.ShedInQueue > 0 {
		// Queue sheds also appear once in the per-algo QueueShed counters.
		var qs uint64
		for _, as := range snap.Algorithms {
			qs += as.QueueShed
		}
		if qs != snap.Admission.ShedInQueue {
			t.Errorf("shed_in_queue %d != per-algo queue_shed sum %d", snap.Admission.ShedInQueue, qs)
		}
	}
}
