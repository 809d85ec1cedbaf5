package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/serve"
)

// oracle is the encoder the /query wire was written with before it was
// written by hand: the hand writer must produce its bytes exactly.
func oracle(t *testing.T, v any) ([]byte, bool) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// oracleErrorBody is the map an error response was encoded from.
func oracleErrorBody(msg string, res serve.Result) map[string]any {
	body := map[string]any{"error": msg}
	if res.ID != 0 {
		body["id"] = res.ID
	}
	if res.Partial {
		body["partial"] = true
		body["gen"] = res.Gen
		body["result"] = res.Payload
	}
	return body
}

func checkResult(t *testing.T, name string, res serve.Result) {
	t.Helper()
	want, wantOK := oracle(t, res)
	got, err := appendResult(nil, &res)
	if (err == nil) != wantOK {
		t.Errorf("%s: writer error %v, encoding/json ok=%v", name, err, wantOK)
		return
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Errorf("%s: writer and encoding/json differ\n got: %.600q\nwant: %.600q", name, got, want)
	}
}

func checkErrorBody(t *testing.T, name, msg string, res serve.Result) {
	t.Helper()
	want, wantOK := oracle(t, oracleErrorBody(msg, res))
	got, err := appendErrorBody(nil, msg, &res)
	if (err == nil) != wantOK {
		t.Errorf("%s: writer error %v, encoding/json ok=%v", name, err, wantOK)
		return
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Errorf("%s: writer and encoding/json differ\n got: %.600q\nwant: %.600q", name, got, want)
	}
}

// TestWireMatchesEncodingJSON holds the hand-written /query documents to
// encoding/json byte for byte: served summaries and full results of every
// algorithm, a served budget-trip partial, the edge values of each array
// type and float format, zero-valued omitempty fields, strings that need
// escaping, and the error bodies.
func TestWireMatchesEncodingJSON(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1}, kronGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, algo := range serve.AlgorithmNames() {
		for _, full := range []bool{false, true} {
			res, err := srv.Do(context.Background(), serve.Request{Graph: "kron", Algo: algo, Source: 3, Full: full})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, fmt.Sprintf("%s full=%v", algo, full), res)
		}
	}

	inf, nan := math.Inf(1), math.NaN()
	floats := []float64{0, 1, -1, 0.5, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, 5e-324,
		math.MaxFloat64, -2.5e-10, 123456789.125, 1.0 / 3, 0.15, 100}
	for name, res := range map[string]serve.Result{
		"zero": {},
		"summary": {ID: 7, Graph: "kron", Algo: "bfs", Source: 12, Gen: 3, DurationMS: 1.25, Worker: 2,
			Payload: serve.Payload{Reached: 10, Iterations: 4, MaxDepth: 3, Components: 2, Checksum: math.MaxUint64}},
		"negative source": {Source: -1, DurationMS: 1e-7},
		"huge duration":   {DurationMS: 1e21},
		"depths":          {Payload: serve.Payload{Depths: []int32{0, -1, 1, math.MaxInt32, math.MinInt32}}},
		"parents":         {Payload: serve.Payload{Parents: []int64{-1, 0, math.MaxInt64, math.MinInt64}}},
		"labels":          {Payload: serve.Payload{Labels: []uint32{0, 1, math.MaxUint32}}},
		"ranks":           {Payload: serve.Payload{Ranks: floats}},
		"dist":            {Payload: serve.Payload{Dist: append([]float64{inf, math.Inf(-1), nan}, floats...)}},
		"empty arrays": {Payload: serve.Payload{Depths: []int32{}, Parents: []int64{}, Dist: serve.Distances{},
			Ranks: []float64{}, Labels: []uint32{}}},
		"every array": {Payload: serve.Payload{Depths: []int32{1}, Parents: []int64{2}, Dist: serve.Distances{3},
			Ranks: []float64{4}, Labels: []uint32{5}}},
		"partial":  {ID: 9, Gen: 1, Partial: true, Payload: serve.Payload{Reached: 2, Depths: []int32{0, 1, -1}}},
		"escapes":  {Graph: "a\"b\\c<d>e&f\b\f\n\r\t\x00\x1f\x7f", Algo: "\u00e9\u2028\u2029\xff\xc3 \u2713"},
		"inf rank": {Payload: serve.Payload{Ranks: []float64{1, inf}}},
		"nan rank": {Payload: serve.Payload{Ranks: []float64{nan}}},
		"nan time": {DurationMS: nan},
	} {
		checkResult(t, name, res)
	}

	// A served budget trip: a full traversal of a long path under a 1 ms
	// budget ships its partial depths beside the error.
	budget, err := serve.New(serve.Config{Workers: 1, MinBudget: time.Millisecond}, pathGraph(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	defer budget.Close()
	if _, err := budget.Do(context.Background(), serve.Request{Graph: "path", Algo: "bfs", Source: 99_998}); err != nil {
		t.Fatal(err)
	}
	res, err := budget.Do(context.Background(), serve.Request{Graph: "path", Algo: "bfs", Full: true})
	if !errors.Is(err, graphblas.ErrBudgetExceeded) || !res.Partial {
		t.Fatalf("budget query: partial=%v err=%v, want a budget trip", res.Partial, err)
	}
	checkErrorBody(t, "budget trip", serve.PublicErrorMessage(err), res)

	for name, tc := range map[string]struct {
		err error
		res serve.Result
	}{
		"400": {fmt.Errorf("%w: source %d out of range [0,%d)", serve.ErrBadRequest, 300, 256), serve.Result{}},
		"404": {fmt.Errorf("%w: %q", serve.ErrUnknownAlgorithm, "<bfs>&\u2028"), serve.Result{}},
		"429": {fmt.Errorf("%w: predicted 3ms backlog", serve.ErrInfeasibleDeadline), serve.Result{}},
		"503": {serve.ErrGraphUnavailable, serve.Result{}},
		"504": {fmt.Errorf("%w: %w", graphblas.ErrCancelled, context.DeadlineExceeded), serve.Result{ID: 12}},
		"598": {fmt.Errorf("%w: %w", graphblas.ErrCancelled, graphblas.ErrBudgetExceeded),
			serve.Result{ID: 13, Gen: 2, Partial: true, Payload: serve.Payload{Reached: 1, Dist: serve.Distances{0, inf}}}},
		"598 nan": {graphblas.ErrBudgetExceeded, serve.Result{Partial: true, Payload: serve.Payload{Ranks: []float64{nan}}}},
	} {
		if serve.HTTPStatus(tc.err) == http.StatusInternalServerError {
			t.Fatalf("%s: %v maps to 500", name, tc.err)
		}
		checkErrorBody(t, name, serve.PublicErrorMessage(tc.err), tc.res)
	}
}

// TestHandlerErrorBodies drives error statuses through the handler and
// checks each body is the document encoding/json makes of its fields.
func TestHandlerErrorBodies(t *testing.T) {
	hs, srv := newTestServer(t, serve.Config{Workers: 1}, pathGraph(t, 100_000))
	for _, tc := range []struct {
		query  string
		status int
	}{
		{"graph=path&algo=bfs&source=-3", http.StatusBadRequest},
		{"graph=path&algo=bfs&source=x", http.StatusBadRequest},
		{"graph=nope&algo=bfs", http.StatusNotFound},
		{"graph=path&algo=%3Cdfs%3E", http.StatusNotFound},
		{"graph=path&algo=bfs&timeout=1ms", http.StatusGatewayTimeout},
	} {
		resp, err := http.Get(hs.URL + "/query?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.query, resp.StatusCode, tc.status, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.query, ct)
		}
		var fields struct {
			Error string `json:"error"`
			ID    uint64 `json:"id"`
		}
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("%s: %v (%s)", tc.query, err, body)
		}
		want, _ := oracle(t, oracleErrorBody(fields.Error, serve.Result{ID: fields.ID}))
		if !bytes.Equal(body, want) {
			t.Errorf("%s: body %q, want %q", tc.query, body, want)
		}
	}

	// 503: a closed server sheds every query.
	srv.Close()
	rec := httptest.NewRecorder()
	newHandler(srv, log.New(io.Discard, "", 0)).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?graph=path&algo=bfs", nil))
	want, _ := oracle(t, oracleErrorBody(serve.PublicErrorMessage(serve.ErrShuttingDown), serve.Result{}))
	if rec.Code != http.StatusServiceUnavailable || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("closed server: %d %q, want 503 %q", rec.Code, rec.Body.Bytes(), want)
	}
}
