package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made. Spans of one query share qid
// (workload name + index into the root pool). A derived span's interval
// was not clocked by the harness but reconstructed from a duration the
// callee reported (the server's duration_ms, IterStats.Duration).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = no parent
	Name    string  `json:"name"`
	QID     string  `json:"qid"`
	StartUS float64 `json:"start_us"` // since the traced pass began
	EndUS   float64 `json:"end_us"`
	Derived bool    `json:"derived,omitempty"`
}

// spanLog keeps spans in memory until the pass ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name, qid string, parent int, start, end time.Time, derived bool) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, QID: qid, Derived: derived,
		StartUS: float64(start.Sub(l.t0)) / 1e3, EndUS: float64(end.Sub(l.t0)) / 1e3,
	})
	return id
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus its direct children's.
func (l *spanLog) selfTimes() map[string][]float64 {
	children := make(map[int]float64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := make(map[string][]float64)
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], (s.EndUS-s.StartUS-children[s.ID])/1e3)
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const batchRoundTrips = 6 // one-client round trips per batch algorithm on mid

// runTraced is the per-layer pass. Against the child it measures what
// only the wire shows, once under the workload's load (the same untraced
// window as the end-to-end pass: its goodput, latencies and CPU per query
// are reported here because they do not repeat well enough on a shared
// host to be gated) and once with a single client (round trip minus the
// server's own duration); in process it times each layer below.
func runTraced(w *workload, seed int64, window time.Duration) (*report, error) {
	bin, err := serveBinary()
	if err != nil {
		return nil, err
	}
	model, err := loadModel()
	if err != nil {
		return nil, err
	}
	var all []string
	for _, g := range servedGraphs {
		all = append(all, g.name)
	}
	p, err := prepare(w, seed, all)
	if err != nil {
		return nil, err
	}
	log := &spanLog{t0: time.Now()}
	l := &layers{p: p, model: model, out: make(map[string]metric), spans: log, traced: w.primary(), wlName: w.name}
	clients := []*http.Client{newClient(), newClient()}

	c, _, err := deploy(bin, clients[0], p, seed)
	if err != nil {
		return nil, err
	}
	defer c.stop()

	// Under the workload's load, with a span per query built afterwards
	// from the samples.
	loaded, err := measureWindow(c, clients, w, p, window)
	if err != nil {
		return nil, err
	}
	attempted, failed := loaded.attempted, loaded.bad

	primary := w.primary()
	lat := loaded.fig.lat
	for name, v := range loaded.timings() {
		l.out[name] = v
	}
	var late, respBytes []float64
	for i := range loaded.win.samples {
		s := &loaded.win.samples[i]
		late = append(late, s.lateMS())
		if s.err != nil {
			continue
		}
		recordRoundTrip(log, w.name, s, loaded.win.start)
		if s.stream == primary {
			respBytes = append(respBytes, float64(s.bytes))
		}
	}
	l.set("ppload.gen_late_p99_ms", percentile(sortedCopy(late), 99), "ms")
	l.set("ppload.client_cpu_ms_per_query", loaded.clientCPUS*1e3/float64(loaded.good), "ms")
	l.set("ppserve.resp_bytes", median(respBytes), "B")
	for name, v := range scrapedMetrics(loaded) {
		l.out[name] = v
	}

	for _, st := range []*stream{midPR, midCC, midPBFS} {
		var ms []float64
		bpool := p.pools[st.graph]
		for i := 0; i < batchRoundTrips; i++ {
			s, err := roundTrip(clients[0], c.base, st, bpool, i%len(bpool), i, p.verifier, log.t0)
			attempted++
			if err != nil {
				failed++
				fmt.Printf("failed operation: %v\n", err)
				continue
			}
			ms = append(ms, s.latencyMS())
		}
		l.set("ppserve.rt_ms.mid-"+st.algo, median(ms), "ms")
	}

	// In process, layer by layer. The child stays up, idle except for the
	// one-client round trips measureStack sends it beside its own calls.
	wm, err := l.measureGenerate()
	if err != nil {
		return nil, err
	}
	l.measurePar()
	kron := adjacencyOf(p.mats["kron"])
	depths, _ := bfsDepths(kron, p.pools["kron"][0])
	levels := map[string]level{"sparse": levelAt(kron, depths, 1), "peak": levelAt(kron, depths, widestLevel(depths))}
	if err := l.measureCore(levels); err != nil {
		return nil, err
	}
	for _, measure := range []func() error{
		func() error { return l.measureMxV(levels) },
		l.measureFixedCost,
		func() error { return l.measureValued(wm) },
		l.measureMid,
	} {
		if err := measure(); err != nil {
			return nil, err
		}
	}
	pool := p.pools[primary.graph]
	a, f, err := l.measureStack(wm, func(srcIdx, seq int) (sample, error) {
		return roundTrip(clients[0], c.base, primary, pool, srcIdx, seq, p.verifier, log.t0)
	})
	attempted, failed = attempted+a, failed+f
	if err != nil {
		return nil, c.fail("%v", err)
	}
	if err := c.terminate(); err != nil {
		return nil, err
	}

	if err := log.write(filepath.Join("bench", "out", "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	fmt.Printf("workload %s, seed %d, traced pass: %d attempted, %d failed\n", w.name, seed, attempted, failed)
	printMetrics(l.out, sortedNames(l.out))
	fmt.Printf("  samples: loaded window %d primary (%d beyond p99, ten needed to support it), one client %d round trips\n",
		len(lat), samplesBeyond(len(lat), 99), l.recon.roundTrips)
	r := l.recon
	fmt.Printf("  self times for %s, one client, medians over roots (ms): http %.3f + serve %.3f + algorithm %.3f + kernel %.3f; round trip p50 %.3f; median gap per root %+.1f%%\n",
		primary.key(), r.httpMS, r.serveMS, r.algoMS, r.kernelMS, r.rtMS, r.gap*100)
	self := log.selfTimes()
	for _, name := range []string{"http.roundtrip", "serve.do", "algorithms." + primary.algo, "algorithms." + primary.algo + ".level", "graphblas.mxv"} {
		fmt.Printf("  span %-24s %6d recorded, median self time %.4f ms\n", name, len(self[name]), median(self[name]))
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: l.out}, nil
}

// roundTrip sends one query outside any window; the sample's times are
// offsets from origin.
func roundTrip(client *http.Client, base string, st *stream, pool []int, srcIdx, seq int, v *verifier, origin time.Time) (sample, error) {
	start := time.Now()
	sum, n, err := query(client, base, st, pool[srcIdx], srcIdx, seq, v, start.Add(st.timeout), new(bytes.Buffer))
	sent := start.Sub(origin)
	return sample{
		stream: st, srcIdx: srcIdx, due: sent, sent: sent, done: time.Since(origin),
		bytes: n, serverMS: sum.durationMS, err: err,
	}, err
}

// recordRoundTrip logs a query as http.roundtrip ⊃ serve.do. The server
// reports only how long Do took, so the child span is centred in the
// round trip: decode before it, encode and transport after.
func recordRoundTrip(log *spanLog, wlName string, s *sample, origin time.Time) {
	sent, done := origin.Add(s.sent), origin.Add(s.done)
	qid := fmt.Sprintf("%s#%d", wlName, s.srcIdx)
	rt := log.add("http.roundtrip", qid, 0, sent, done, false)
	do := time.Duration(s.serverMS * 1e6)
	slack := (done.Sub(sent) - do) / 2
	log.add("serve.do", qid, rt, sent.Add(slack), sent.Add(slack+do), true)
}
