package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"pushpull/internal/serve"
)

// reusableWriter is an http.ResponseWriter whose header map and body
// buffer survive from one request to the next, so what a served query
// allocates is the handler's own.
type reusableWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *reusableWriter) Header() http.Header         { return w.h }
func (w *reusableWriter) WriteHeader(status int)      { w.status = status }
func (w *reusableWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *reusableWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body.Reset()
}

// TestQueryHandlerGarbage bounds what one warm /query request allocates
// inside the handler: the request parse, Server.Do and the response write.
// A summary query must stay under 1 KB and a full BFS POST under 4 KB — the
// full depth array goes back to the result pool once it is written. GC is
// off (a cycle empties the pools) and one P runs the test, so an array put
// back by the handler is the one the worker borrows next.
func TestQueryHandlerGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts, so a borrowed array may be a fresh one")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := serve.New(serve.Config{Workers: 1}, kronGraph(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := newHandler(srv, log.New(io.Discard, "", 0))
	w := &reusableWriter{h: make(http.Header)}

	const requests = 500
	serveAll := func(reqs func(i int) *http.Request) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < requests; i++ {
			w.reset()
			h.ServeHTTP(w, reqs(i))
			if w.status != http.StatusOK {
				t.Fatalf("status %d: %s", w.status, w.body.Bytes())
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / requests
	}

	for _, tc := range []struct {
		name  string
		query string
		bound uint64
	}{
		{"summary BFS GET", "/query?graph=kron&algo=bfs&source=3", 1 << 10},
		{"summary SSSP GET", "/query?graph=kron&algo=sssp&source=3", 1 << 10},
	} {
		r := httptest.NewRequest(http.MethodGet, tc.query, nil)
		serveAll(func(int) *http.Request { return r }) // warm the worker, the pools and the buffers
		got := serveAll(func(int) *http.Request { return r })
		t.Logf("%s: %d B/query", tc.name, got)
		if got > tc.bound {
			t.Errorf("%s allocates %d B/query, want ≤ %d", tc.name, got, tc.bound)
		}
	}

	// A POST's body is consumed by the request, so each gets its own; they
	// are all made before the measured loop.
	body, err := json.Marshal(serve.Request{Graph: "kron", Algo: "bfs", Source: 3, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	posts := func() []*http.Request {
		reqs := make([]*http.Request, requests)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			reqs[i].Header.Set("Content-Type", "application/json")
		}
		return reqs
	}
	warm := posts()
	serveAll(func(i int) *http.Request { return warm[i] })
	measured := posts()
	got := serveAll(func(i int) *http.Request { return measured[i] })
	t.Logf("full BFS POST: %d B/query", got)
	if got > 4<<10 {
		t.Errorf("full BFS POST allocates %d B/query, want ≤ 4 KB", got)
	}
}
