package main

import (
	"bytes"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pushpull/graphblas"
	"pushpull/internal/serve"
)

// TestHTTPFullSSSPWithUnreachableVertices: a full SSSP answer on a graph
// with two components carries +Inf distances, which JSON cannot spell. The
// body must arrive, with null standing for "unreachable" — this used to be
// an empty 200.
func TestHTTPFullSSSPWithUnreachableVertices(t *testing.T) {
	// Components {0,1,2} (a path) and {3,4} (an edge), both directions.
	rows := []uint32{0, 1, 1, 2, 3, 4}
	cols := []uint32{1, 0, 2, 1, 4, 3}
	m, err := graphblas.NewMatrixFromCOO(5, 5, rows, cols, []bool{true, true, true, true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := newTestServer(t, serve.Config{Workers: 1}, serve.NewGraph("split", m))

	var got struct {
		Result struct {
			Reached  int        `json:"reached"`
			Checksum uint64     `json:"checksum"`
			Dist     []*float64 `json:"dist"`
		} `json:"result"`
	}
	getJSON(t, hs.URL+"/query?graph=split&algo=sssp&source=0&full=1", http.StatusOK, &got)
	if got.Result.Reached != 3 || got.Result.Checksum == 0 {
		t.Fatalf("reached %d checksum %x, want 3 reached and a checksum", got.Result.Reached, got.Result.Checksum)
	}
	if len(got.Result.Dist) != 5 {
		t.Fatalf("dist has %d entries, want 5", len(got.Result.Dist))
	}
	for v, d := range got.Result.Dist {
		if v >= 3 {
			if d != nil {
				t.Errorf("vertex %d is unreachable but its distance is %g, want null", v, *d)
			}
		} else if d == nil {
			t.Errorf("vertex %d is reachable but its distance is null", v)
		} else if (v == 0) != (*d == 0) {
			t.Errorf("vertex %d: distance %g", v, *d)
		}
	}

	// The summary form never carried the array and must be unaffected.
	var summary serve.Result
	getJSON(t, hs.URL+"/query?graph=split&algo=sssp&source=0", http.StatusOK, &summary)
	if summary.Payload.Checksum != got.Result.Checksum || summary.Payload.Dist != nil {
		t.Errorf("summary checksum %x dist %v, want %x and no array", summary.Payload.Checksum, summary.Payload.Dist, got.Result.Checksum)
	}
}

// TestWriteJSONEncodeFailureIs500: a value the encoder refuses must not go
// out as a 200 with an empty body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	var logged bytes.Buffer
	rec := httptest.NewRecorder()
	writeJSON(rec, log.New(&logged, "", 0), http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("body %q carries no error", rec.Body.String())
	}
	if !strings.Contains(logged.String(), "encoding") {
		t.Errorf("encode failure was not logged: %q", logged.String())
	}
}
