package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/harness"
	"pushpull/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config, graphs ...*serve.Graph) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv, err := serve.New(cfg, graphs...)
	if err != nil {
		t.Fatal(err)
	}
	logger := log.New(io.Discard, "", 0)
	hs := httptest.NewServer(newHandler(srv, logger))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs, srv
}

func kronGraph(t *testing.T, scale int) *serve.Graph {
	t.Helper()
	m, err := harness.LoadGraph("", "kron", scale)
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewGraph("kron", m)
}

func pathGraph(t *testing.T, n int) *serve.Graph {
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
	return serve.NewGraph("path", m)
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v (body %s)", url, err, body)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	hs, _ := newTestServer(t, serve.Config{Workers: 4}, kronGraph(t, 8))

	getJSON(t, hs.URL+"/healthz", http.StatusOK, nil)

	var graphs struct {
		Graphs []struct {
			Name       string   `json:"name"`
			Vertices   int      `json:"vertices"`
			LoadMS     *float64 `json:"load_ms"`
			ValidateMS *float64 `json:"validate_ms"`
		} `json:"graphs"`
		Algorithms []string `json:"algorithms"`
	}
	getJSON(t, hs.URL+"/graphs", http.StatusOK, &graphs)
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "kron" || graphs.Graphs[0].Vertices != 256 {
		t.Fatalf("graphs listing: %+v", graphs)
	}
	if g := graphs.Graphs[0]; g.LoadMS == nil || g.ValidateMS == nil || *g.ValidateMS <= 0 {
		t.Errorf("graphs listing must say what load and validation took, got load_ms %v validate_ms %v", g.LoadMS, g.ValidateMS)
	}
	if len(graphs.Algorithms) != 5 {
		t.Fatalf("algorithms listing: %v", graphs.Algorithms)
	}

	// Repeat GET queries are deterministic: same checksum both times.
	var first, second serve.Result
	getJSON(t, hs.URL+"/query?graph=kron&algo=bfs&source=0", http.StatusOK, &first)
	getJSON(t, hs.URL+"/query?graph=kron&algo=bfs&source=0", http.StatusOK, &second)
	if first.Payload.Checksum == 0 || first.Payload.Checksum != second.Payload.Checksum {
		t.Fatalf("GET checksums %x then %x, want equal and non-zero", first.Payload.Checksum, second.Payload.Checksum)
	}

	// POST body form produces the identical result.
	body, _ := json.Marshal(serve.Request{Graph: "kron", Algo: "bfs", Source: 0})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var posted serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || posted.Payload.Checksum != first.Payload.Checksum {
		t.Fatalf("POST: status %d checksum %x, want 200 / %x", resp.StatusCode, posted.Payload.Checksum, first.Payload.Checksum)
	}

	// Every algorithm serves over HTTP.
	for _, algo := range graphs.Algorithms {
		var res serve.Result
		getJSON(t, fmt.Sprintf("%s/query?graph=kron&algo=%s&source=1", hs.URL, algo), http.StatusOK, &res)
		if res.Payload.Checksum == 0 {
			t.Errorf("%s: zero checksum", algo)
		}
	}

	// Error taxonomy over the wire.
	getJSON(t, hs.URL+"/query?graph=nope&algo=bfs", http.StatusNotFound, nil)
	getJSON(t, hs.URL+"/query?graph=kron&algo=dijkstra", http.StatusNotFound, nil)
	getJSON(t, hs.URL+"/query?graph=kron&algo=bfs&source=notanumber", http.StatusBadRequest, nil)
	getJSON(t, hs.URL+"/query?graph=kron&algo=bfs&source=99999", http.StatusBadRequest, nil)
	getJSON(t, hs.URL+"/query?graph=kron&algo=bfs&timeout=bogus", http.StatusBadRequest, nil)

	var metrics serve.MetricsSnapshot
	getJSON(t, hs.URL+"/metrics", http.StatusOK, &metrics)
	if metrics.Submitted == 0 || metrics.Algorithms["bfs"].OK == 0 {
		t.Fatalf("metrics: %+v", metrics)
	}
	var queries []serve.QueryInfo
	getJSON(t, hs.URL+"/debug/queries", http.StatusOK, &queries)
	if len(queries) == 0 {
		t.Fatal("debug/queries: empty")
	}
}

// TestHTTPCancelledQuery abandons an in-flight HTTP query client-side and
// asserts the service sheds it and keeps serving.
func TestHTTPCancelledQuery(t *testing.T) {
	hs, srv := newTestServer(t, serve.Config{Workers: 1}, pathGraph(t, 100_000))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/query?graph=path&algo=bfs", nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	waitRunning := time.Now().Add(10 * time.Second)
	for {
		hasRunning := false
		for _, q := range srv.Queries() {
			if q.State == "running" {
				hasRunning = true
			}
		}
		if hasRunning {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatal("query never started running")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("abandoned request returned %v, want context cancellation", err)
	}

	// The pool sheds the traversal and the next (cheap) query succeeds.
	var res serve.Result
	getJSON(t, hs.URL+"/query?graph=path&algo=bfs&source=99998", http.StatusOK, &res)
	if res.Payload.Reached != 2 {
		t.Fatalf("post-cancel query reached %d vertices, want 2", res.Payload.Reached)
	}
}

// TestHTTPAdmissionSheds fills the one-worker, one-slot service and
// asserts the third query is shed with 429 + Retry-After. The first query
// holds the worker until the test releases it, so the shed does not
// depend on how long a traversal takes.
func TestHTTPAdmissionSheds(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1}, pathGraph(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	claimed, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	handler := newHandler(srv, log.New(io.Discard, "", 0))
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			r = r.WithContext(&holdContext{Context: r.Context(), claimed: claimed, release: release})
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	// Registered last, so it runs first: a failed test still frees the
	// worker before the server waits for it.
	releaseWorker := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseWorker)

	statuses := make(chan int, 2)
	query := func() {
		resp, err := http.Get(hs.URL + "/query?graph=path&algo=bfs")
		if err != nil {
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go query()
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never claimed the first query")
	}
	go query()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Snapshot().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(hs.URL + "/query?graph=path&algo=bfs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Released, the held query and the queued one both run.
	releaseWorker()
	for i := 0; i < 2; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Errorf("admitted query answered %d, want 200", code)
		}
	}
}

// holdContext parks the first Err call made on it until release is
// closed, after closing claimed. A server worker makes that call when it
// claims the query (the claim checks the client's context), so the query
// whose request carries it holds the worker for as long as the test keeps
// release open.
type holdContext struct {
	context.Context
	claimed, release chan struct{}
	once             sync.Once
}

func (c *holdContext) Err() error {
	c.once.Do(func() {
		close(c.claimed)
		<-c.release
	})
	return c.Context.Err()
}

// TestHTTPBudgetPartial: a query tripping its execution budget answers
// with the dedicated budget status and ships its partial result in the
// body — clients get the progress they paid for, clearly marked.
func TestHTTPBudgetPartial(t *testing.T) {
	hs, _ := newTestServer(t, serve.Config{Workers: 1, MinBudget: time.Millisecond}, pathGraph(t, 100_000))

	// A near-leaf source completes in microseconds and seeds the
	// predictor's EWMA; the full traversal then gets a budget of 8× that
	// (at least 1ms) it cannot meet.
	getJSON(t, hs.URL+"/query?graph=path&algo=bfs&source=99998", http.StatusOK, nil)

	var body struct {
		Error   string        `json:"error"`
		Partial bool          `json:"partial"`
		Result  serve.Payload `json:"result"`
	}
	getJSON(t, hs.URL+"/query?graph=path&algo=bfs&source=0", serve.StatusBudgetExceeded, &body)
	if !body.Partial {
		t.Error("budget response not marked partial")
	}
	if body.Result.Reached == 0 {
		t.Error("budget response carries no partial progress")
	}
	if !strings.Contains(body.Error, "budget") {
		t.Errorf("budget response error %q does not name the budget", body.Error)
	}
}

func TestParseRequestForms(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/query?graph=kron&algo=sssp&source=7&timeout=2s&full=true", nil)
	req, err := parseRequest(httptest.NewRecorder(), r, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Request{Graph: "kron", Algo: "sssp", Source: 7, Timeout: 2 * time.Second, Full: true}
	if req != want {
		t.Fatalf("parseRequest = %+v, want %+v", req, want)
	}

	body, _ := json.Marshal(want)
	r = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	req, err = parseRequest(httptest.NewRecorder(), r, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if req != want {
		t.Fatalf("parseRequest POST = %+v, want %+v", req, want)
	}

	r = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{not json"))
	r.Header.Set("Content-Type", "application/json")
	if _, err := parseRequest(httptest.NewRecorder(), r, new([]byte)); err == nil {
		t.Fatal("malformed body accepted")
	}
}

// TestHTTPLifecycleEndpoints drives the serving lifecycle over the wire:
// degraded start with a failing source, liveness vs readiness split,
// per-graph status in /graphs, admin reload (method-gated, 207 on
// rollback, 200 on recovery), and the /metrics lifecycle counters.
func TestHTTPLifecycleEndpoints(t *testing.T) {
	var loadErr atomic.Pointer[string]
	msg := "fixture corrupt"
	loadErr.Store(&msg)
	sources := []serve.GraphSource{
		{Name: "good", Load: func() (*serve.Graph, error) {
			m, err := harness.LoadGraph("", "kron", 6)
			if err != nil {
				return nil, err
			}
			return serve.NewGraph("good", m), nil
		}},
		{Name: "flaky", Load: func() (*serve.Graph, error) {
			if e := loadErr.Load(); e != nil {
				return nil, errors.New(*e)
			}
			m, err := harness.LoadGraph("", "kron", 7)
			if err != nil {
				return nil, err
			}
			return serve.NewGraph("flaky", m), nil
		}},
	}
	srv, err := serve.NewFromSources(serve.Config{Workers: 2}, sources)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newHandler(srv, log.New(io.Discard, "", 0)))
	defer func() {
		hs.Close()
		srv.Close()
	}()

	// Liveness holds while degraded; readiness does not.
	var health struct{ Mode string }
	getJSON(t, hs.URL+"/healthz", http.StatusOK, &health)
	if health.Mode != "degraded" {
		t.Errorf("healthz mode %q, want degraded", health.Mode)
	}
	var ready struct {
		Ready  bool
		Graphs []serve.GraphInfo
	}
	getJSON(t, hs.URL+"/readyz", http.StatusServiceUnavailable, &ready)
	if ready.Ready || len(ready.Graphs) != 2 {
		t.Errorf("readyz while degraded: %+v", ready)
	}

	// The valid subset serves; the failed graph answers 503.
	getJSON(t, hs.URL+"/query?graph=good&algo=bfs", http.StatusOK, nil)
	getJSON(t, hs.URL+"/query?graph=flaky&algo=bfs", http.StatusServiceUnavailable, nil)

	var graphs struct {
		Degraded bool
		Graphs   []serve.GraphInfo
	}
	getJSON(t, hs.URL+"/graphs", http.StatusOK, &graphs)
	if !graphs.Degraded {
		t.Error("graphs listing does not report degraded")
	}
	for _, gi := range graphs.Graphs {
		if gi.Name == "flaky" && (gi.Status != serve.GraphFailed || !strings.Contains(gi.Error, "fixture corrupt")) {
			t.Errorf("flaky graph info %+v, want failed with reason", gi)
		}
	}

	// Reload is POST-only; while the source stays broken it reports 207.
	resp, err := http.Get(hs.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.ReloadReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMultiStatus || rep.Failed != 1 || rep.OK != 1 {
		t.Fatalf("broken reload: status %d report %+v, want 207 with 1 ok / 1 failed", resp.StatusCode, rep)
	}

	// Fix the source: reload recovers, readiness flips, mode returns.
	loadErr.Store(nil)
	resp, err = http.Post(hs.URL+"/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = serve.ReloadReport{}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Failed != 0 || rep.OK != 2 {
		t.Fatalf("recovery reload: status %d report %+v, want 200 with 2 ok", resp.StatusCode, rep)
	}
	getJSON(t, hs.URL+"/readyz", http.StatusOK, &ready)
	getJSON(t, hs.URL+"/healthz", http.StatusOK, &health)
	if health.Mode != "serving" {
		t.Errorf("healthz mode after recovery %q, want serving", health.Mode)
	}
	getJSON(t, hs.URL+"/query?graph=flaky&algo=bfs", http.StatusOK, nil)

	var metrics serve.MetricsSnapshot
	getJSON(t, hs.URL+"/metrics", http.StatusOK, &metrics)
	lc := metrics.Lifecycle
	if lc.Degraded || lc.Reloads != 3 || lc.ReloadFailures != 1 {
		t.Errorf("lifecycle counters %+v, want healthy with 3 reloads / 1 failure", lc)
	}
	if lc.SnapshotsInstalled == 0 || len(lc.Graphs) != 2 {
		t.Errorf("lifecycle snapshot surface %+v", lc)
	}
}

func TestResolveModelDegrades(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	m, err := resolveModel(logger, "", false)
	if err != nil || m != nil {
		t.Fatalf("no profile: model %v err %v, want nil/nil", m, err)
	}
	m, err = resolveModel(logger, t.TempDir()+"/missing.json", false)
	if err != nil || m != nil {
		t.Fatalf("missing profile: model %v err %v, want nil/nil (lenient)", m, err)
	}
}
