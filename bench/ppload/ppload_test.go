package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {106, 90, true}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {19, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v (%d beyond), want %v", c.n, c.p, got, samplesBeyond(c.n, c.p), c.want)
		}
	}
}

// The values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), which the driver judges spreads by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 12, 11, 15, 14, 13, 19, 17, 16, 18})
	if q1 != 11.75 || med != 14.5 || q3 != 17.25 {
		t.Errorf("quartiles of 10..19 = %v %v %v, want 11.75 14.5 17.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
}

// The figures cover everything after the ramp and nothing in it, a late
// or failed answer misses its limit, and a window too short to support a
// p90 is an error, not a figure.
func TestFiguresCoverTheWindowAfterTheRamp(t *testing.T) {
	st := &stream{graph: "g", algo: "bfs", limit: 5 * time.Millisecond}
	win := &windowResult{from: time.Second, to: 3 * time.Second, cpuFrom: 1, cpuTo: 3}
	add := func(done, lat time.Duration, err error) {
		win.samples = append(win.samples, sample{stream: st, due: done - lat, sent: done - lat, done: done, err: err})
	}
	for i := 0; i < 50; i++ {
		add(time.Duration(i+1)*10*time.Millisecond, 40*time.Millisecond, nil) // ramp: slow, and ignored
	}
	for i := 0; i < 200; i++ {
		lat := time.Millisecond
		if i%10 == 9 {
			lat = 8 * time.Millisecond // good, but over the limit
		}
		// The first one was due in the ramp and answered in the window.
		add(time.Second+time.Duration(i)*9*time.Millisecond+time.Millisecond/2, lat, nil)
	}
	add(2500*time.Millisecond, time.Millisecond, errors.New("HTTP 500"))
	f, err := win.figures(st)
	if err != nil {
		t.Fatal(err)
	}
	if f.attempted != 201 || f.good != 200 || len(f.lat) != 200 {
		t.Errorf("%d attempted, %d good, %d latencies; want 201, 200, 200", f.attempted, f.good, len(f.lat))
	}
	if f.qps != 100 || f.cpuMS != 10 || percentile(f.lat, 50) != 1 {
		t.Errorf("goodput %v/s, cpu %v ms per query, p50 %v ms; want 100, 10, 1", f.qps, f.cpuMS, percentile(f.lat, 50))
	}
	if want := 180.0 / 201; f.inLimit != want {
		t.Errorf("in-limit share %v, want %v: 20 late answers and the failure miss", f.inLimit, want)
	}
	// An open loop assigns by the slot on the schedule, not by completion.
	win.open = true
	if f, err = win.figures(st); err != nil || f.attempted != 200 {
		t.Errorf("open loop: %d attempted (%v); the query due in the ramp and answered after it belongs to the ramp", f.attempted, err)
	}
	win.samples = win.samples[:140]
	if _, err := win.figures(st); err == nil {
		t.Error("89 samples after the ramp leave eight beyond p90; that must be an error")
	}
}

// fakeAnswer is a well-formed /query answer as ppserve indents it.
const fakeAnswer = "{\n  \"id\": 1,\n  \"duration_ms\": 0.25,\n  \"result\": {\n    \"reached\": 3,\n    \"checksum\": 18446744073709551615\n  }\n}\n"

func TestScanSummary(t *testing.T) {
	s, err := scanSummary([]byte(fakeAnswer))
	if err != nil {
		t.Fatal(err)
	}
	if s.reached != 3 || s.checksum != math.MaxUint64 || s.durationMS != 0.25 {
		t.Errorf("scanSummary = %+v", s)
	}
	if _, err := scanSummary([]byte(`{"error":"nope"}`)); err == nil {
		t.Error("an answer without the summary fields must not verify")
	}
}

// The coordinated-omission test: in an open loop, a stall must show in the
// latency of the queries scheduled behind it, because latency runs from
// the slot on the schedule, not from the moment the late query was sent.
func TestOpenLoopCountsTheStallAgainstLaterQueries(t *testing.T) {
	const (
		rate    = 100 // one slot every 10 ms
		stallAt = 3
		stall   = 150 * time.Millisecond
		window  = 300 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
		fmt.Fprint(w, fakeAnswer)
	}))
	defer srv.Close()

	st := &stream{graph: "g", algo: "bfs", timeout: 5 * time.Second}
	pools := map[string][]int{"g": {0, 1, 2, 3}}
	samples := runConn(newClient(), srv.URL, conn{streams: []*stream{st}, rate: rate}, 0, 1, pools, newVerifier(), time.Now(), window)

	if want := int(window.Seconds() * rate); len(samples) != want {
		t.Fatalf("%d samples, want every one of the %d slots sent however late", len(samples), want)
	}
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("sample %d: %v", i, s.err)
		}
		if want := time.Duration(i) * time.Second / rate; s.due != want {
			t.Fatalf("sample %d due at %v, want its slot %v", i, s.due, want)
		}
	}
	// The query after the stalled one was due 10 ms after it but could
	// leave only when the stall ended.
	behind := samples[stallAt]
	if behind.lateMS() < 100 || behind.latencyMS() < 100 {
		t.Errorf("query behind the stall: sent %.1f ms late, latency %.1f ms; both must include the stall", behind.lateMS(), behind.latencyMS())
	}
	if fromSent := float64(behind.done-behind.sent) / 1e6; fromSent > 50 {
		t.Errorf("the query itself took %.1f ms once sent; the test's premise is that only waiting made it late", fromSent)
	}
	if first := samples[0]; first.latencyMS() > 100 {
		t.Errorf("query before the stall took %.1f ms", first.latencyMS())
	}
}

func TestClosedLoopDueIsPreviousAnswer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, fakeAnswer) }))
	defer srv.Close()
	st := &stream{graph: "g", algo: "bfs", timeout: time.Second}
	samples := runConn(newClient(), srv.URL, conn{streams: []*stream{st}}, 0, 2, map[string][]int{"g": {5, 6, 7, 8}}, newVerifier(), time.Now(), 50*time.Millisecond)
	if len(samples) < 2 {
		t.Fatalf("%d samples in 50 ms against a local server", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].due != samples[i-1].done {
			t.Fatalf("sample %d due at %v, previous answer arrived at %v", i, samples[i].due, samples[i-1].done)
		}
		if samples[i].done > 50*time.Millisecond {
			t.Fatalf("sample %d completed after the window", i)
		}
	}
	// Connection 0 of 2 takes every other root.
	if samples[0].srcIdx != 0 || samples[1].srcIdx != 2 {
		t.Errorf("roots %d, %d; want 0, 2", samples[0].srcIdx, samples[1].srcIdx)
	}
}

func testGraphs(t *testing.T) map[string]*graphblas.Matrix[bool] {
	t.Helper()
	grid, err := generate.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graphblas.Matrix[bool]{"grid": grid}
	for seed := int64(1); seed <= 3; seed++ {
		m, err := generate.RMAT(generate.RMATConfig{Scale: 6, EdgeFactor: 4, Undirected: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("rmat%d", seed)] = m
	}
	return graphs
}

// The oracle and the system under test are independent implementations;
// on small graphs they must agree from every root.
func TestOracleAgreesWithAlgorithms(t *testing.T) {
	for name, m := range testGraphs(t) {
		adj := adjacencyOf(m)
		wadj, err := weightedAdjacency(m)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := generate.WeightedCopy(m, 1, 10, 99)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := algorithms.ConnectedComponents(m)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[uint32]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		if count, _ := components(adj); count != len(distinct) {
			t.Errorf("%s: union-find finds %d components, ConnectedComponents %d", name, count, len(distinct))
		}
		for src := 0; src < adj.n; src++ {
			depths, reached := bfsDepths(adj, src)
			res, err := algorithms.BFS(m, src, algorithms.BFSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited != reached || !reflect.DeepEqual(res.Depths, depths) {
				t.Fatalf("%s: BFS from %d disagrees with the queue BFS", name, src)
			}
			dist, dreached := dijkstra(wadj, src)
			got, err := algorithms.SSSP(wm, src, algorithms.SSSPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			finite := 0
			for v, d := range got {
				if !math.IsInf(d, 1) {
					finite++
				}
				// Exact, not within a tolerance: the served checksum is
				// compared bit for bit with Dijkstra's.
				if d != dist[v] {
					t.Fatalf("%s: SSSP from %d: dist[%d] = %v, Dijkstra %v", name, src, v, d, dist[v])
				}
			}
			if finite != dreached {
				t.Fatalf("%s: SSSP from %d reaches %d, Dijkstra %d", name, src, finite, dreached)
			}
			parents, err := algorithms.ParentBFS(m, src)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(map[string]any{"result": map[string]any{"parents": parents}})
			st := &stream{graph: name, algo: "parentbfs", full: true}
			v := newVerifier()
			v.adj[st.key()] = adj
			if err := v.checkFull(st, 0, answer{depths: depths}, body); err != nil {
				t.Fatalf("%s: ParentBFS from %d: %v", name, src, err)
			}
		}
	}
}

func TestVerifierRejectsWrongAnswers(t *testing.T) {
	m := testGraphs(t)["grid"]
	adj := adjacencyOf(m)
	st := &stream{graph: "grid", algo: "bfs", full: true}
	v := newVerifier()
	if err := v.addStream(st, adj, nil, []int{0, 9}); err != nil {
		t.Fatal(err)
	}
	depths, reached := bfsDepths(adj, 9)
	answer := func(reached int, checksum uint64, depths []int32) []byte {
		b, _ := json.MarshalIndent(map[string]any{
			"duration_ms": 0.1,
			"result":      map[string]any{"reached": reached, "checksum": checksum, "depths": depths},
		}, "", "  ")
		return b
	}
	if _, err := v.check(st, 1, 0, answer(reached, checksumDepths(depths), depths)); err != nil {
		t.Fatalf("the right answer was rejected: %v", err)
	}
	if _, err := v.check(st, 1, 1, answer(reached, checksumDepths(depths)+1, depths)); err == nil {
		t.Error("a wrong checksum was accepted")
	}
	if _, err := v.check(st, 1, 1, answer(reached-1, checksumDepths(depths), depths)); err == nil {
		t.Error("a wrong reached count was accepted")
	}
	wrong := append([]int32(nil), depths...)
	wrong[5]++
	if _, err := v.check(st, 1, 0, answer(reached, checksumDepths(depths), wrong)); err == nil {
		t.Error("a wrong depth in a fully decoded payload was accepted")
	}
	// Where the oracle cannot predict the checksum, the first one seen
	// must repeat.
	pr := &stream{graph: "grid", algo: "pagerank"}
	if err := v.addStream(pr, adj, nil, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.check(pr, 0, 0, answer(adj.n, 42, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.check(pr, 0, 1, answer(adj.n, 43, nil)); err == nil {
		t.Error("a PageRank checksum that changed between answers was accepted")
	}
}

func TestSourceSelectionIsSeededAndSkipsIsolatedVertices(t *testing.T) {
	m := testGraphs(t)["rmat1"]
	adj := adjacencyOf(m)
	_, giant := components(adj)
	inGiant := map[int]bool{}
	for _, v := range giant {
		inGiant[v] = true
	}
	isolated := 0
	for v := 0; v < adj.n; v++ {
		if len(adj.row(v)) == 0 {
			isolated++
			if inGiant[v] {
				t.Fatalf("isolated vertex %d is in the giant component", v)
			}
		}
	}
	if isolated == 0 {
		t.Fatal("the test graph has no isolated vertex; pick another seed")
	}
	a, b := pickSources(giant, 16, 7), pickSources(giant, 16, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed drew %v then %v", a, b)
	}
	if reflect.DeepEqual(a, pickSources(giant, 16, 8)) {
		t.Error("another seed drew the same roots")
	}
	seen := map[int]bool{}
	for _, v := range a {
		if !inGiant[v] || seen[v] {
			t.Errorf("root %d is outside the giant component or drawn twice", v)
		}
		seen[v] = true
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (pp serve) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 5 0 100 1000000 500 18446744073709551615\n")
	if cpu, err := parseStatCPU(stat); err != nil || cpu != 2 {
		t.Errorf("parseStatCPU = %v, %v; want 2 s (150+50 ticks)", cpu, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("a malformed stat line must fail loudly")
	}
	status := []byte("Name:\tppserve\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n")
	if mb, err := parseStatusHWM(status); err != nil || mb != 200 {
		t.Errorf("parseStatusHWM = %v, %v; want 200 MB", mb, err)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status file without VmHWM must fail loudly")
	}
}

// BENCHMARK.json and the workload table must name the same workloads.
func TestManifestMatchesWorkloadTable(t *testing.T) {
	man, err := loadManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, man.Workloads[i].Name, w.name)
		}
	}
}
