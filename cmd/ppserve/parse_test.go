package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"pushpull/internal/serve"
)

// referenceParse is the request parser /query had before it walked the raw
// query itself: url.Values for GET parameters, a json.Decoder over the
// body for a POST whose Content-Type is exactly application/json.
func referenceParse(r *http.Request) (serve.Request, error) {
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

// newParseRequest builds a GET with the given raw query, or a JSON POST
// with the given body.
func newParseRequest(rawQuery string, body []byte, post bool) *http.Request {
	r := &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Path: "/query", RawQuery: rawQuery},
		Header: make(http.Header),
		Body:   http.NoBody,
	}
	if post {
		r.Method = http.MethodPost
		r.Header.Set("Content-Type", "application/json")
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return r
}

// FuzzParseRequest holds parseRequest to the reference parser: the same
// Request, or an error of the same class. GET errors must also read the
// same, since both quote the same offending value. Its corpus
// (testdata/fuzz/FuzzParseRequest) covers escapes, '+', repeated keys,
// empty values and ';'.
func FuzzParseRequest(f *testing.F) {
	f.Add("graph=kron&algo=bfs&source=3&timeout=2s&class=batch&full=1", []byte(nil), false)
	f.Add("", []byte(`{"graph":"kron","algo":"sssp","source":7,"timeout":2000000000,"full":true}`), true)
	f.Add("", []byte(`{"graph":"kron"} trailing`), true)
	f.Fuzz(func(t *testing.T, rawQuery string, body []byte, post bool) {
		want, wantErr := referenceParse(newParseRequest(rawQuery, body, post))
		got, err := parseRequest(httptest.NewRecorder(), newParseRequest(rawQuery, body, post), new([]byte))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("query %q body %q post %v: error %v, reference %v", rawQuery, body, post, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, serve.ErrBadRequest) || !errors.Is(wantErr, serve.ErrBadRequest) {
				t.Fatalf("query %q body %q: error %v, reference %v: both must be bad requests", rawQuery, body, err, wantErr)
			}
			if !post && err.Error() != wantErr.Error() {
				t.Fatalf("query %q: error %q, reference %q", rawQuery, err, wantErr)
			}
			return
		}
		if got != want {
			t.Fatalf("query %q body %q post %v: %+v, reference %+v", rawQuery, body, post, got, want)
		}
	})
}

// TestPostMediaTypeParameters: a JSON POST is recognised by its media
// type, whatever its parameters or case — a charset parameter used to send
// the query down the GET path, where it answered 404 "unknown algorithm".
func TestPostMediaTypeParameters(t *testing.T) {
	hs, _ := newTestServer(t, serve.Config{Workers: 1}, kronGraph(t, 8))
	var want serve.Result
	getJSON(t, hs.URL+"/query?graph=kron&algo=bfs&source=3", http.StatusOK, &want)
	body := []byte(`{"graph":"kron","algo":"bfs","source":3}`)
	for _, ct := range []string{"application/json; charset=utf-8", "Application/JSON", " application/json ;charset=UTF-8"} {
		resp, err := http.Post(hs.URL+"/query", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.Result
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("Content-Type %q: status %d (%v), want 200", ct, resp.StatusCode, err)
		}
		if got.Payload.Checksum != want.Payload.Checksum {
			t.Errorf("Content-Type %q: checksum %x, want %x", ct, got.Payload.Checksum, want.Payload.Checksum)
		}
	}
	for _, ct := range []string{"text/plain", "application/jsonx", "application/json-patch+json"} {
		if isJSON(ct) {
			t.Errorf("isJSON(%q) = true", ct)
		}
	}
}

// TestOversizedBodyIs413: a body over maxBodyBytes is refused with 413 and
// the usual JSON error body; one of exactly maxBodyBytes still parses.
func TestOversizedBodyIs413(t *testing.T) {
	hs, _ := newTestServer(t, serve.Config{Workers: 1}, kronGraph(t, 8))
	query := `{"graph":"kron","algo":"bfs","source":3}`
	post := func(size int) (int, string) {
		body := query + strings.Repeat(" ", size-len(query))
		resp, err := http.Post(hs.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("body of %d bytes: response is not JSON: %v", size, err)
		}
		return resp.StatusCode, got.Error
	}
	if status, msg := post(maxBodyBytes); status != http.StatusOK {
		t.Errorf("body of exactly %d bytes: status %d (%s), want 200", maxBodyBytes, status, msg)
	}
	if status, msg := post(maxBodyBytes + 1); status != http.StatusRequestEntityTooLarge || msg != errBodyTooLarge.Error() {
		t.Errorf("body of %d bytes: status %d error %q, want 413 %q", maxBodyBytes+1, status, msg, errBodyTooLarge)
	}
}
