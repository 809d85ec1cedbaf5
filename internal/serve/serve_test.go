package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/harness"
	"pushpull/internal/par"
)

// kronGraph loads the small Kronecker stand-in every pool test serves.
func kronGraph(t *testing.T, scale int) *Graph {
	t.Helper()
	m, err := harness.LoadGraph("", "kron", scale)
	if err != nil {
		t.Fatal(err)
	}
	return NewGraph("kron", m)
}

// pathGraph builds a directed n-vertex path — a traversal with n levels,
// slow enough that deadline/cancellation/admission tests can interrupt it
// deterministically (each test polls for the state it needs, never sleeps
// and hopes).
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	rows := make([]uint32, n-1)
	cols := make([]uint32, n-1)
	vals := make([]bool, n-1)
	for i := 0; i < n-1; i++ {
		rows[i], cols[i], vals[i] = uint32(i), uint32(i+1), true
	}
	m, err := graphblas.NewMatrixFromCOO(n, n, rows, cols, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewGraph("path", m)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentMixedQueries is the acceptance stress: 64 concurrent
// in-flight queries mixing every algorithm over one shared Matrix, each
// result checked against a single-worker oracle's checksum, with the
// parallel runtime's parked-worker count stable across the storm and the
// metrics reporting every outcome.
func TestConcurrentMixedQueries(t *testing.T) {
	g := kronGraph(t, 8)
	sources := []int{0, 3, 17, 101}

	// Oracle: the same queries served strictly one at a time.
	oracleSrv, err := New(Config{Workers: 1}, kronGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		algo   string
		source int
	}
	oracle := make(map[key]uint64)
	for _, algo := range AlgorithmNames() {
		for _, s := range sources {
			res, err := oracleSrv.Do(context.Background(), Request{Graph: "kron", Algo: algo, Source: s})
			if err != nil {
				t.Fatalf("oracle %s/%d: %v", algo, s, err)
			}
			if res.Payload.Checksum == 0 {
				t.Fatalf("oracle %s/%d: zero checksum", algo, s)
			}
			oracle[key{algo, s}] = res.Payload.Checksum
		}
	}
	oracleSrv.Close()

	srv, err := New(Config{Workers: 8, QueueDepth: 128}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Warm the parallel runtime, then pin its parked-worker count: the
	// storm must neither leak nor strand persistent workers.
	if _, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs"}); err != nil {
		t.Fatal(err)
	}
	base := par.ParkedWorkers()

	const clients = 64
	algos := AlgorithmNames()
	var wg sync.WaitGroup
	errs := make(chan error, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for run := 0; run < 2; run++ {
				algo := algos[(c+run)%len(algos)]
				s := sources[c%len(sources)]
				res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: algo, Source: s})
				if err != nil {
					errs <- fmt.Errorf("client %d %s/%d: %v", c, algo, s, err)
					return
				}
				if want := oracle[key{algo, s}]; res.Payload.Checksum != want {
					errs <- fmt.Errorf("client %d %s/%d: checksum %x, oracle %x", c, algo, s, res.Payload.Checksum, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	waitFor(t, "parked workers to return to baseline", func() bool {
		return par.ParkedWorkers() == base
	})

	snap := srv.Metrics().Snapshot()
	if want := uint64(1 + clients*2); snap.Submitted != want {
		t.Errorf("submitted = %d, want %d", snap.Submitted, want)
	}
	if snap.Rejected != 0 {
		t.Errorf("rejected = %d, want 0 (queue was sized for the storm)", snap.Rejected)
	}
	var totalOK, totalBucketed uint64
	for algo, as := range snap.Algorithms {
		if as.OK == 0 {
			t.Errorf("algorithm %s: zero completed queries", algo)
		}
		if as.MeanMS <= 0 {
			t.Errorf("algorithm %s: mean latency %v, want > 0", algo, as.MeanMS)
		}
		totalOK += as.OK
		for _, b := range as.LatencyBuckets {
			totalBucketed += b
		}
	}
	if totalBucketed != totalOK {
		t.Errorf("latency histogram counts %d queries, %d completed", totalBucketed, totalOK)
	}
	if p := snap.Planner; p.PushIters+p.PullIters == 0 {
		t.Error("planner metrics saw no traced iterations")
	} else if p.MeasuredNs == 0 {
		t.Error("planner metrics measured no kernel time")
	}
}

// TestAdmissionRejection pins the bounded-queue contract: with one worker
// occupied and the one queue slot filled, the next query is rejected
// immediately with ErrQueueFull (HTTP 429), not delayed.
func TestAdmissionRejection(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 1}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	slow := func() {
		defer wg.Done()
		_, _ = srv.Do(ctx, Request{Graph: "path", Algo: "bfs"})
	}
	wg.Add(1)
	go slow() // occupies the worker
	waitFor(t, "first query to start running", func() bool {
		for _, q := range srv.Queries() {
			if q.State == "running" {
				return true
			}
		}
		return false
	})
	wg.Add(1)
	go slow() // fills the queue slot
	waitFor(t, "second query to queue", func() bool {
		return srv.Metrics().Snapshot().QueueDepth == 1
	})

	_, err = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload Do: %v, want ErrQueueFull", err)
	}
	if got := HTTPStatus(err); got != http.StatusTooManyRequests {
		t.Errorf("HTTPStatus = %d, want 429", got)
	}
	if snap := srv.Metrics().Snapshot(); snap.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.Rejected)
	}

	cancel() // release the slow queries
	wg.Wait()
}

// TestDeadlineMapsTo504: a per-query deadline expiring mid-traversal
// surfaces as context.DeadlineExceeded (through the wrapped ErrCancelled)
// and maps to 504, never 499.
func TestDeadlineMapsTo504(t *testing.T) {
	srv, err := New(Config{Workers: 1}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, err = srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Timeout: 2 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do: %v, want DeadlineExceeded", err)
	}
	if got := HTTPStatus(err); got != http.StatusGatewayTimeout {
		t.Errorf("HTTPStatus = %d, want 504", got)
	}
	if snap := srv.Metrics().Snapshot(); snap.Algorithms["bfs"].Deadline != 1 {
		t.Errorf("deadline count = %d, want 1", snap.Algorithms["bfs"].Deadline)
	}
}

// TestClientGoneMapsTo499: the client abandoning its context mid-query
// returns a wrapped ErrCancelled that does not match DeadlineExceeded —
// the 499 path — and the worker sheds the abandoned traversal.
func TestClientGoneMapsTo499(t *testing.T) {
	srv, err := New(Config{Workers: 1}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Do(ctx, Request{Graph: "path", Algo: "bfs"})
		done <- err
	}()
	waitFor(t, "query to start running", func() bool {
		for _, q := range srv.Queries() {
			if q.State == "running" {
				return true
			}
		}
		return false
	})
	cancel()
	err = <-done
	if !errors.Is(err, graphblas.ErrCancelled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do: %v, want ErrCancelled without DeadlineExceeded", err)
	}
	if got := HTTPStatus(err); got != StatusClientClosedRequest {
		t.Errorf("HTTPStatus = %d, want 499", got)
	}
	// The worker finishes shedding the traversal and records the outcome.
	waitFor(t, "cancelled query to be recorded", func() bool {
		return srv.Metrics().Snapshot().Algorithms["bfs"].Cancelled == 1
	})
}

// TestValidation covers the fast-fail request taxonomy: every structural
// error resolves before a queue slot is consumed.
func TestValidation(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		req    Request
		want   error
		status int
	}{
		{"unknown graph", Request{Graph: "nope", Algo: "bfs"}, ErrUnknownGraph, http.StatusNotFound},
		{"unknown algo", Request{Graph: "kron", Algo: "dijkstra"}, ErrUnknownAlgorithm, http.StatusNotFound},
		{"source out of range", Request{Graph: "kron", Algo: "bfs", Source: 1 << 20}, ErrBadRequest, http.StatusBadRequest},
		{"negative source", Request{Graph: "kron", Algo: "sssp", Source: -1}, ErrBadRequest, http.StatusBadRequest},
		{"negative timeout", Request{Graph: "kron", Algo: "bfs", Timeout: -time.Second}, ErrBadRequest, http.StatusBadRequest},
	}
	for _, c := range cases {
		_, err := srv.Do(context.Background(), c.req)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Do = %v, want %v", c.name, err, c.want)
		}
		if got := HTTPStatus(err); got != c.status {
			t.Errorf("%s: HTTPStatus = %d, want %d", c.name, got, c.status)
		}
	}

	srv.Close()
	if _, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs"}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("Do after Close: %v, want ErrShuttingDown", err)
	} else if got := HTTPStatus(err); got != http.StatusServiceUnavailable {
		t.Errorf("HTTPStatus after Close = %d, want 503", got)
	}
}

// TestHTTPStatusMapping is the unit table for the taxonomy→transport map,
// including the ordering subtlety (deadline expiries match both
// ErrCancelled and DeadlineExceeded and must land on 504).
func TestHTTPStatusMapping(t *testing.T) {
	deadlineWrapped := fmt.Errorf("%w: %w", graphblas.ErrCancelled, context.DeadlineExceeded)
	clientGone := fmt.Errorf("%w: %w", graphblas.ErrCancelled, context.Canceled)
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrShuttingDown, http.StatusServiceUnavailable},
		{ErrUnknownGraph, http.StatusNotFound},
		{ErrUnknownAlgorithm, http.StatusNotFound},
		{ErrBadRequest, http.StatusBadRequest},
		{deadlineWrapped, http.StatusGatewayTimeout},
		{clientGone, StatusClientClosedRequest},
		{graphblas.ErrCancelled, StatusClientClosedRequest},
		{graphblas.NewPanicError("injected"), http.StatusInternalServerError},
		{errors.New("mystery"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestPublicErrorMessageHidesStacks: a kernel panic's Error() carries the
// captured goroutine stack for the server log; the public message must
// collapse to the sentinel text.
func TestPublicErrorMessageHidesStacks(t *testing.T) {
	perr := graphblas.NewPanicError("injected fault")
	if !strings.Contains(perr.Error(), "goroutine") && !strings.Contains(perr.Error(), "injected fault") {
		t.Skip("panic error no longer carries diagnostic detail; nothing to hide")
	}
	pub := PublicErrorMessage(perr)
	if pub != graphblas.ErrKernelPanic.Error() {
		t.Errorf("public message %q, want the bare sentinel %q", pub, graphblas.ErrKernelPanic.Error())
	}
	if strings.Contains(pub, "goroutine") || strings.Contains(pub, "injected fault") {
		t.Errorf("public message leaks diagnostic detail: %q", pub)
	}
	// Non-panic errors pass through untouched.
	if got := PublicErrorMessage(ErrQueueFull); got != ErrQueueFull.Error() {
		t.Errorf("PublicErrorMessage(ErrQueueFull) = %q", got)
	}
}

// TestWeightedSharedAcrossQueries: the lazily derived SSSP weights build
// once and every query shares the same matrix (pointer identity).
func TestWeightedSharedAcrossQueries(t *testing.T) {
	g := kronGraph(t, 6)
	w1, err := g.Weighted()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := g.Weighted()
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("Weighted rebuilt the weighted copy")
	}
}

// TestQueriesRingKeepsNewest: a finished query's task is recycled, so the
// completed ring keeps QueryInfo by value. After more queries than it
// holds, /debug/queries lists exactly the last recentQueries of them,
// oldest first, each with its own id and outcome.
func TestQueriesRingKeepsNewest(t *testing.T) {
	srv, err := New(Config{Workers: 1}, pathGraph(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var last uint64
	for i := 0; i < recentQueries+9; i++ {
		res, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Source: i})
		if err != nil {
			t.Fatal(err)
		}
		last = res.ID
	}
	qs := srv.Queries()
	if len(qs) != recentQueries {
		t.Fatalf("%d queries listed, want %d", len(qs), recentQueries)
	}
	for i, q := range qs {
		want := last - uint64(recentQueries-1-i)
		if q.ID != want || q.State != "done" || q.Status != "ok" || q.Source != int(want)-1 {
			t.Errorf("entry %d: id %d state %q status %q source %d, want id %d done ok source %d",
				i, q.ID, q.State, q.Status, q.Source, want, int(want)-1)
		}
	}
}

// TestRecycledTasksUnderAbandonment: a task is recycled by whichever of Do
// and its worker lets go last. Clients that leave at every point of a
// query's life — before admission, while queued, mid-run, after delivery —
// must never see another query's answer, leave a query tracked as
// in flight, or lose an outcome from the books. Run it under -race.
func TestRecycledTasksUnderAbandonment(t *testing.T) {
	oracleSrv, err := New(Config{Workers: 1}, kronGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	algos := AlgorithmNames()
	oracle := make(map[string]uint64)
	for _, algo := range algos {
		for s := 0; s < 4; s++ {
			res, err := oracleSrv.Do(context.Background(), Request{Graph: "kron", Algo: algo, Source: s})
			if err != nil {
				t.Fatal(err)
			}
			oracle[fmt.Sprint(algo, s)] = res.Payload.Checksum
		}
	}
	oracleSrv.Close()

	srv, err := New(Config{Workers: 3, QueueDepth: 64}, kronGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 16, 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				algo, s := algos[(c+i)%len(algos)], (c*7+i)%4
				ctx, cancel := context.WithCancel(context.Background())
				switch i % 4 {
				case 0: // gone before admission
					cancel()
				case 1: // gone after a moment: queued, running or done
					time.AfterFunc(time.Duration(c*i%200)*time.Microsecond, cancel)
				}
				res, err := srv.Do(ctx, Request{Graph: "kron", Algo: algo, Source: s, Full: i%3 == 0})
				cancel()
				switch {
				case err == nil:
					if want := oracle[fmt.Sprint(algo, s)]; res.Payload.Checksum != want || res.Algo != algo || res.Source != s {
						t.Errorf("client %d: %s/%d answered %s/%d checksum %x, want %x", c, algo, s, res.Algo, res.Source, res.Payload.Checksum, want)
					}
				case !errors.Is(err, graphblas.ErrCancelled) || i%4 > 1:
					t.Errorf("client %d: %s/%d (case %d): %v", c, algo, s, i%4, err)
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Close() // waits for every worker, so every outcome is booked

	for _, q := range srv.Queries() {
		if q.State != "done" {
			t.Errorf("query %d still %s after close", q.ID, q.State)
		}
	}
	snap := srv.Metrics().Snapshot()
	var outcomes uint64
	for _, as := range snap.Algorithms {
		outcomes += as.OK + as.Errors + as.Cancelled + as.Deadline + as.Budget + as.Panics + as.QueueShed
	}
	if accounted := outcomes + snap.Admission.ShedFull + snap.Admission.ShedInfeasible; accounted != snap.Submitted || snap.Submitted != clients*perClient {
		t.Errorf("submitted %d, accounted %d, want both %d", snap.Submitted, accounted, clients*perClient)
	}
}
