package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pushpull/internal/serve"
)

// newHandler wires the service's HTTP surface:
//
//	GET/POST /query         run one query (params or JSON body; class=
//	                        interactive|batch picks the scheduling class)
//	GET      /graphs        registered graphs: status, generation, sizes, last error
//	GET      /metrics       live counters, latency histograms, planner quality,
//	                        lifecycle (snapshots, reloads, worker self-healing)
//	GET      /debug/queries in-flight and recently completed queries
//	GET      /healthz       liveness (200 while the process runs, even degraded)
//	GET      /readyz        readiness (503 while any graph has no serving snapshot)
//	POST     /admin/reload  re-read every -graph spec: load, validate, swap or roll back
func newHandler(srv *serve.Server, logger *log.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(srv, logger, w, r)
	})
	mux.HandleFunc("/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, logger, http.StatusOK, map[string]any{
			"graphs":     srv.GraphInfos(),
			"algorithms": serve.AlgorithmNames(),
			"degraded":   srv.Degraded(),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, logger, http.StatusOK, srv.Metrics().Snapshot())
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, logger, http.StatusOK, srv.Queries())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and can answer — a degraded server
		// is alive (it serves its valid subset); only readiness flips.
		mode := "serving"
		if srv.Degraded() {
			mode = "degraded"
		}
		writeJSON(w, logger, http.StatusOK, map[string]string{"status": "ok", "mode": mode})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if srv.Ready() {
			writeJSON(w, logger, http.StatusOK, map[string]any{"ready": true})
			return
		}
		writeJSON(w, logger, http.StatusServiceUnavailable, map[string]any{
			"ready":  false,
			"graphs": srv.GraphInfos(),
		})
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, logger, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
			return
		}
		rep := srv.Reload(r.Context())
		logReload(logger, "admin reload", rep)
		status := http.StatusOK
		if rep.Failed > 0 {
			// Partial or total rollback: the report carries per-graph
			// reasons; 207 signals "look inside".
			status = http.StatusMultiStatus
		}
		writeJSON(w, logger, status, rep)
	})
	return mux
}

// logReload prints one line per reloaded graph so the startup log is the
// audit trail for swaps and rollbacks.
func logReload(logger *log.Logger, what string, rep serve.ReloadReport) {
	for _, res := range rep.Results {
		if res.Error != "" {
			logger.Printf("%s: graph %q ROLLED BACK (%s, gen stays %d): %s",
				what, res.Graph, res.Status, res.Gen, res.Error)
		} else {
			logger.Printf("%s: graph %q swapped to gen %d (%.1fms)",
				what, res.Graph, res.Gen, res.DurationMS)
		}
	}
}

// parseRequest accepts the query either as URL parameters (GET-friendly:
// ?graph=kron&algo=bfs&source=0&timeout=2s&class=batch&full=1) or as a
// JSON body. A timeout of zero takes the 30 s default; one above 5 m is
// clamped to it.
func parseRequest(r *http.Request) (serve.Request, error) {
	var req serve.Request
	if r.Method == http.MethodPost && r.Header.Get("Content-Type") == "application/json" {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, fmt.Errorf("%w: body: %v", serve.ErrBadRequest, err)
		}
		return req, nil
	}
	q := r.URL.Query()
	req.Graph = q.Get("graph")
	req.Algo = q.Get("algo")
	req.Class = q.Get("class")
	if s := q.Get("source"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return req, fmt.Errorf("%w: source %q", serve.ErrBadRequest, s)
		}
		req.Source = v
	}
	if s := q.Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return req, fmt.Errorf("%w: timeout %q", serve.ErrBadRequest, s)
		}
		req.Timeout = d
	}
	if s := q.Get("full"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return req, fmt.Errorf("%w: full %q", serve.ErrBadRequest, s)
		}
		req.Full = v
	}
	return req, nil
}

func handleQuery(srv *serve.Server, logger *log.Logger, w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(r)
	if err != nil {
		writeError(w, logger, serve.Result{}, err)
		return
	}
	res, err := srv.Do(r.Context(), req)
	if err != nil {
		writeError(w, logger, res, err)
		return
	}
	writeJSON(w, logger, http.StatusOK, res)
}

// writeError maps the error taxonomy to transport codes. The response
// body carries only the public message — kernel panic stacks go to the
// server log keyed by query id, never on the wire. 429 sheds add
// Retry-After from the hint the shed carries (the predicted backlog's
// drain time), so well-behaved clients back off proportionally to the
// actual overload. Budget trips (598) additionally ship the query's
// partial result, marked partial, alongside the error.
func writeError(w http.ResponseWriter, logger *log.Logger, res serve.Result, err error) {
	status := serve.HTTPStatus(err)
	switch status {
	case http.StatusTooManyRequests:
		if secs, ok := serve.RetryAfterHint(err); ok {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case http.StatusInternalServerError:
		logger.Printf("query %d failed: %v", res.ID, err)
	}
	body := map[string]any{"error": serve.PublicErrorMessage(err)}
	if res.ID != 0 {
		body["id"] = res.ID
	}
	if res.Partial {
		body["partial"] = true
		body["gen"] = res.Gen
		body["result"] = res.Payload
	}
	writeJSON(w, logger, status, body)
}

// encodeBuffers recycles response buffers: a full payload is tens of
// kilobytes per query, which is otherwise the handler's largest allocation.
var encodeBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v completely before the status line goes out, so a
// value encoding/json refuses becomes a logged 500 rather than a 200 with
// an empty body.
func writeJSON(w http.ResponseWriter, logger *log.Logger, status int, v any) {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		logger.Printf("encoding a %d response failed: %v", status, err)
		status = http.StatusInternalServerError
		buf.Reset()
		buf.WriteString("{\n  \"error\": \"response encoding failed\"\n}\n")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone: no one to tell
}
