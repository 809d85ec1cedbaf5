package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sample is one query as the client saw it. Times are offsets from the
// window's start.
type sample struct {
	stream *stream
	srcIdx int
	// due is when the query should have left: its slot on the schedule in
	// an open loop, the arrival of the previous answer in a closed loop.
	// Latency is measured from due, not from sent, so that a stall's cost
	// to the queries scheduled behind it is counted.
	due, sent, done time.Duration
	bytes           int
	serverMS        float64 // the answer's duration_ms
	err             error   // nil for a good query
}

func (s *sample) latencyMS() float64 { return float64(s.done-s.due) / 1e6 }
func (s *sample) lateMS() float64    { return float64(s.sent-s.due) / 1e6 }

// newClient returns a client that holds exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// query sends one query and checks the answer. A good query is HTTP 200
// within its deadline whose answer the oracle accepts; everything else
// returns an error and counts as a failed operation.
func query(client *http.Client, base string, st *stream, source, srcIdx, seq int, v *verifier, deadline time.Time, buf *bytes.Buffer) (summary, int, error) {
	method, target, body := st.request(base, source)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return summary{}, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return summary{}, 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return summary{}, buf.Len(), err
	}
	if resp.StatusCode != http.StatusOK {
		return summary{}, buf.Len(), fmt.Errorf("%s: HTTP %d: %.200s", st.key(), resp.StatusCode, buf.Bytes())
	}
	s, err := v.check(st, srcIdx, seq, buf.Bytes())
	return s, buf.Len(), err
}

// runConn plays one connection's script from start until end and returns
// its samples. The connection is the rank-th of share connections that play
// the same streams. Closed loop: a query that has not been answered by end is
// dropped (it is neither attempted nor failed; the next window would have
// counted it). Open loop: every slot on the schedule before end is sent
// and counted, however late its answer.
func runConn(client *http.Client, base string, c conn, rank, share int, pools map[string][]int, v *verifier, start time.Time, window time.Duration) []sample {
	var samples []sample
	var buf bytes.Buffer
	period := time.Duration(0)
	if c.rate > 0 {
		period = time.Duration(float64(time.Second) / c.rate)
	}
	prevDone := time.Duration(0)
	for i := 0; ; i++ {
		st := c.streams[i%len(c.streams)]
		pool := pools[st.graph]
		// seq is the query's ordinal on its stream. The connections that
		// share a stream interleave through the pool, so that between them
		// they cover every root.
		seq := i / len(c.streams)
		srcIdx := (rank + seq*share) % len(pool)
		var due time.Duration
		if c.rate > 0 {
			due = c.phase + time.Duration(i)*period
			if due >= window {
				break
			}
			if wait := time.Until(start.Add(due)); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			due = prevDone
		}
		sent := time.Since(start)
		if c.rate == 0 && sent >= window {
			break
		}
		deadline := start.Add(due + st.timeout)
		sum, n, err := query(client, base, st, pool[srcIdx], srcIdx, seq, v, deadline, &buf)
		done := time.Since(start)
		if c.rate == 0 && done > window {
			break
		}
		prevDone = done
		samples = append(samples, sample{
			stream: st, srcIdx: srcIdx, due: due, sent: sent, done: done,
			bytes: n, serverMS: sum.durationMS, err: err,
		})
	}
	return samples
}

// ramp is how long the load runs before the measured window opens: the
// second connection comes up and the child's caches fill with this run's
// roots; the first second's median is up to a third above the next one's.
const ramp = time.Second

// windowResult is one measured window and the ramp before it.
type windowResult struct {
	start   time.Time
	open    bool
	samples []sample // all connections, ramp included, in no particular order
	// The window's two ends as measured, not nominal, and the child's CPU
	// seconds read there.
	from, to       time.Duration
	cpuFrom, cpuTo float64
}

// runWindow plays every connection of the workload for the ramp and then
// the window, and reads the child's CPU time where the window opens and
// where it closes.
func runWindow(clients []*http.Client, base string, w *workload, pools map[string][]int, v *verifier, window time.Duration, cpu func() (float64, error)) (windowResult, error) {
	res := windowResult{start: time.Now(), open: w.open()}
	perConn := make([][]sample, len(w.conns))
	var wg sync.WaitGroup
	for i, c := range w.conns {
		rank, share := w.lane(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			perConn[i] = runConn(clients[i], base, c, rank, share, pools, v, res.start, ramp+window)
		}()
	}
	time.Sleep(time.Until(res.start.Add(ramp)))
	res.from = time.Since(res.start)
	var errFrom, errTo error
	res.cpuFrom, errFrom = cpu()
	// The window closes here, so goodput is over the whole window even
	// when an open loop's last answer arrives early.
	time.Sleep(time.Until(res.start.Add(ramp + window)))
	res.to = time.Since(res.start)
	res.cpuTo, errTo = cpu()
	wg.Wait()
	for _, s := range perConn {
		res.samples = append(res.samples, s...)
	}
	return res, errors.Join(errFrom, errTo)
}

// measured reports whether a sample belongs to the window and not the
// ramp: by its slot on the schedule in an open loop, by its completion in
// a closed loop (which is what the window's throughput counts).
func (r *windowResult) measured(s *sample) bool {
	if r.open {
		return s.due >= ramp
	}
	return s.done >= ramp
}

// figures are the windowed end-to-end figures.
type figures struct {
	attempted, good int
	qps, cpuMS      float64   // good queries per second; child CPU per good query
	inLimit         float64   // share of the attempted answered within their stream's limit
	lat             []float64 // primary-stream latencies of good queries, ascending
}

// figures computes the windowed figures over everything after the ramp. A
// window that leaves fewer than ten samples beyond the primary stream's
// p90 is an error: the figure would be one or two outliers.
func (r *windowResult) figures(primary *stream) (figures, error) {
	var f figures
	inLimit := 0
	for i := range r.samples {
		s := &r.samples[i]
		if !r.measured(s) {
			continue
		}
		f.attempted++
		if s.err != nil {
			continue
		}
		f.good++
		if s.done-s.due <= s.stream.limit {
			inLimit++
		}
		if s.stream == primary {
			f.lat = append(f.lat, s.latencyMS())
		}
	}
	if !supported(len(f.lat), 90) {
		return f, fmt.Errorf("%d good %s queries after the ramp leave %d beyond p90; ten are needed", len(f.lat), primary.key(), samplesBeyond(len(f.lat), 90))
	}
	sort.Float64s(f.lat)
	f.qps = float64(f.good) / (r.to - r.from).Seconds()
	f.cpuMS = (r.cpuTo - r.cpuFrom) * 1e3 / float64(f.good)
	f.inLimit = float64(inLimit) / float64(f.attempted)
	return f, nil
}

// streamLatencies returns the latencies of one stream's good queries in
// the window, ascending.
func (r *windowResult) streamLatencies(st *stream) []float64 {
	var out []float64
	for i := range r.samples {
		if s := &r.samples[i]; s.stream == st && s.err == nil && r.measured(s) {
			out = append(out, s.latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

func (r *windowResult) counts() (attempted, failed int, firstErr error) {
	for i := range r.samples {
		attempted++
		if err := r.samples[i].err; err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return
}

// warmUp sends warmQueries queries per warm-up stream through one
// connection. Streams the run has an oracle for use (and verify) the
// first roots of their pool. The others belong to graphs this run never
// built, so roots are drawn blind from the seed and an answer counts
// toward the warm-up only if it reached most of the graph: an isolated
// root answers in microseconds and warms nothing.
func warmUp(client *http.Client, base string, pools map[string][]int, v *verifier, seed int64) error {
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(seed))
	for _, st := range warmStreams {
		g := graphByName(st.graph)
		pool, have := pools[st.graph]
		warmed := 0
		for try := 0; warmed < warmQueries; try++ {
			if try >= 16*warmQueries {
				return fmt.Errorf("warm-up of %s: only %d of %d roots reached most of the graph", st.key(), warmed, try)
			}
			source, srcIdx := rng.Intn(g.n()), 0
			if have {
				srcIdx = try % len(pool)
				source = pool[srcIdx]
			}
			// seq 0 makes every full warm-up answer a full decode.
			sum, _, err := query(client, base, st, source, srcIdx, 0, v, time.Now().Add(st.timeout), &buf)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if sum.reached > g.n()/4 {
				warmed++
			}
		}
	}
	return nil
}
