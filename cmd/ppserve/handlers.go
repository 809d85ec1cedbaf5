package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// maxBodyBytes caps a /query request body. A query is a few dozen bytes
// of JSON; the cap keeps a client from growing the pooled buffer the body
// is read into (wireBuffers) to a size of its choosing. A larger body is
// answered 413.
const maxBodyBytes = 64 << 10

var errBodyTooLarge = fmt.Errorf("request body over %d bytes", maxBodyBytes)

// parseRequest accepts the query either as URL parameters (GET-friendly:
// ?graph=kron&algo=bfs&source=0&timeout=2s&class=batch&full=1) or as a
// JSON body (a POST whose media type is application/json), read into *bp.
// A timeout of zero takes the 30 s default; one above 5 m is clamped to it.
func parseRequest(w http.ResponseWriter, r *http.Request, bp *[]byte) (serve.Request, error) {
	if r.Method == http.MethodPost && isJSON(r.Header.Get("Content-Type")) {
		body, err := readAll((*bp)[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
		*bp = body
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return serve.Request{}, errBodyTooLarge
			}
			return serve.Request{}, fmt.Errorf("%w: body: %v", serve.ErrBadRequest, err)
		}
		return decodeBody(body)
	}
	var req serve.Request
	q := r.URL.RawQuery
	req.Graph = queryValue(q, "graph")
	req.Algo = queryValue(q, "algo")
	req.Class = queryValue(q, "class")
	if s := queryValue(q, "source"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return req, fmt.Errorf("%w: source %q", serve.ErrBadRequest, s)
		}
		req.Source = v
	}
	if s := queryValue(q, "timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			return req, fmt.Errorf("%w: timeout %q", serve.ErrBadRequest, s)
		}
		req.Timeout = d
	}
	if s := queryValue(q, "full"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return req, fmt.Errorf("%w: full %q", serve.ErrBadRequest, s)
		}
		req.Full = v
	}
	return req, nil
}

// decodeBody decodes a JSON request body. A json.Decoder takes the body's
// first value and ignores what follows it; Unmarshal wants the whole body
// to be one value. Only a body Unmarshal refuses takes the decoder, so
// every body parses as a decoder over the stream parses it.
func decodeBody(body []byte) (serve.Request, error) {
	var req serve.Request
	if json.Unmarshal(body, &req) == nil {
		return req, nil
	}
	req = serve.Request{}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return req, fmt.Errorf("%w: body: %v", serve.ErrBadRequest, err)
	}
	return req, nil
}

// isJSON reports whether a Content-Type header names application/json.
// It compares the media type, case-insensitively, and ignores parameters
// such as charset=utf-8.
func isJSON(contentType string) bool {
	mediaType, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(mediaType), "application/json")
}

// queryValue returns key's first value in a raw URL query, as
// URL.Query().Get(key) does, without building the url.Values map: pairs
// split at '&', a pair holding ';' or a malformed %-escape in its key or
// value is skipped, and '+' and %-escapes decode (a string holding
// neither comes back from url.QueryUnescape as it is, unallocated).
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// readAll appends what r yields until EOF to b, as io.ReadAll does to a
// fresh slice.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// wireBuffers recycles the /query byte buffer: the request body is read
// into it, then the response is written into it. A full payload is tens of
// kilobytes per query, which is otherwise the handler's largest allocation.
var wireBuffers = sync.Pool{New: func() any { return new([]byte) }}

func handleQuery(srv *serve.Server, logger *log.Logger, w http.ResponseWriter, r *http.Request) {
	bp := wireBuffers.Get().(*[]byte)
	defer wireBuffers.Put(bp)
	req, err := parseRequest(w, r, bp)
	if err != nil {
		writeError(w, logger, bp, serve.Result{}, err)
		return
	}
	res, err := srv.Do(r.Context(), req)
	if err != nil {
		writeError(w, logger, bp, res, err)
		return
	}
	b, err := appendResult((*bp)[:0], &res)
	*bp = b
	res.Payload.Release() // its array, if full, is written out
	writeBody(w, logger, http.StatusOK, b, err)
}

// writeError maps the error taxonomy to transport codes. The response
// body carries only the public message — kernel panic stacks go to the
// server log keyed by query id, never on the wire. 429 sheds add
// Retry-After from the hint the shed carries (the predicted backlog's
// drain time), so well-behaved clients back off proportionally to the
// actual overload. Budget trips (598) additionally ship the query's
// partial result, marked partial, alongside the error. A body over
// maxBodyBytes is a 413.
func writeError(w http.ResponseWriter, logger *log.Logger, bp *[]byte, res serve.Result, err error) {
	status := serve.HTTPStatus(err)
	if errors.Is(err, errBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	switch status {
	case http.StatusTooManyRequests:
		if secs, ok := serve.RetryAfterHint(err); ok {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case http.StatusInternalServerError:
		logger.Printf("query %d failed: %v", res.ID, err)
	}
	b, encodeErr := appendErrorBody((*bp)[:0], serve.PublicErrorMessage(err), &res)
	*bp = b
	res.Payload.Release()
	writeBody(w, logger, status, b, encodeErr)
}

// writeJSON encodes an admin endpoint's value. It encodes v completely
// before the status line goes out, so a value encoding/json refuses becomes
// a logged 500 rather than a 200 with an empty body.
func writeJSON(w http.ResponseWriter, logger *log.Logger, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	writeBody(w, logger, status, append(b, '\n'), err)
}

// jsonContentType is every response's Content-Type value, shared so that
// setting the header allocates nothing; net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeBody sends a finished JSON document. A non-nil encodeErr means
// encoding the document failed: it is logged, and the client gets a 500
// with a fixed error body instead.
func writeBody(w http.ResponseWriter, logger *log.Logger, status int, b []byte, encodeErr error) {
	if encodeErr != nil {
		logger.Printf("encoding a %d response failed: %v", status, encodeErr)
		status = http.StatusInternalServerError
		b = []byte("{\n  \"error\": \"response encoding failed\"\n}\n")
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client is gone: no one to tell
}
