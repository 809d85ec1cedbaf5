package main

import (
	"fmt"
	"net/url"
	"strconv"
	"time"
)

// The deployment is the same for every workload, so setup_s measures the
// same deterministic work everywhere: four generated graphs, two workers
// on two cores, and the committed cost-model profile. Calibrating at
// start-up instead would make each run's push/pull decisions depend on a
// noisy fit, and running untuned would measure a mode nobody deploys.

// servedGraph is one -graph argument of the child.
type servedGraph struct {
	name, spec string
	scale      int // log2 of the vertex count
	pool       int // query roots drawn per seed
}

func (g servedGraph) n() int { return 1 << g.scale }

var servedGraphs = []servedGraph{
	{name: "kron", spec: "kron:17", scale: 17, pool: 128},
	{name: "road", spec: "roadnet:16", scale: 16, pool: 256},
	{name: "mid", spec: "kron:14", scale: 14, pool: 128},
	{name: "tiny", spec: "kron:12", scale: 12, pool: 256},
}

func graphByName(name string) servedGraph {
	for _, g := range servedGraphs {
		if g.name == name {
			return g
		}
	}
	panic("ppload: unknown graph " + name)
}

const (
	tunePath    = "bench/pptune.json"
	childProcs  = 2 // GOMAXPROCS and -workers of the child
	childQueue  = 64
	warmQueries = 8 // per (graph, algorithm) pair, before any window
	setupReps   = 3 // deployments per run; setup_s is their median

	// stallGrace is how long the shared host may freeze both processes
	// without an operation failing: every query's deadline, and the floor of
	// the child's execution budgets. The host does freeze, for up to two
	// seconds at a time; ppserve's default budget floor of 1 s then trips
	// whatever is running (HTTP 598), which is the host's doing, not the
	// program's. A freeze still shows, as latency and in in_limit_frac.
	stallGrace = 30 * time.Second
)

func childArgs() []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(childProcs),
		"-queue", strconv.Itoa(childQueue),
		"-tune", tunePath,
		"-min-budget", stallGrace.String(),
	}
	for _, g := range servedGraphs {
		args = append(args, "-graph", g.name+"="+g.spec)
	}
	return args
}

// stream is one (graph, algorithm, class, payload) kind of query.
// Percentiles are only ever taken within one stream: a percentile over a
// mixture sits between the modes and moves with the mix, not the system.
type stream struct {
	graph, algo string
	class       string // "" = interactive
	full        bool   // ask for the per-vertex array
	post        bool   // POST a JSON body instead of GET parameters
	// timeout is the query's deadline (stallGrace, except in tests): missing
	// it is a failed operation. limit is the stream's latency limit, about
	// ten times its median on the reference host in its fast state: an answer
	// that takes longer is good but late, and in_limit_frac is the share
	// that was not. The host's slow states (up to 2.5 times slower, for
	// minutes) stay inside it; a server many times slower, or one that
	// stalls, does not. The open loop's interactive stream gets more,
	// because there a stall of the host is charged to every query scheduled
	// behind it.
	timeout, limit time.Duration
}

func (s *stream) key() string { return s.graph + "/" + s.algo }

func (s *stream) needsSource() bool { return s.algo != "pagerank" && s.algo != "cc" }

// request renders the query for one source as (method, url, body).
func (s *stream) request(base string, source int) (method, target string, body []byte) {
	if s.post {
		b := fmt.Sprintf(`{"graph":%q,"algo":%q,"source":%d,"timeout":%d,"full":%t`,
			s.graph, s.algo, source, s.timeout.Nanoseconds(), s.full)
		if s.class != "" {
			b += fmt.Sprintf(`,"class":%q`, s.class)
		}
		return "POST", base + "/query", []byte(b + "}")
	}
	q := url.Values{}
	q.Set("graph", s.graph)
	q.Set("algo", s.algo)
	q.Set("source", strconv.Itoa(source))
	q.Set("timeout", s.timeout.String())
	if s.class != "" {
		q.Set("class", s.class)
	}
	if s.full {
		q.Set("full", "1")
	}
	return "GET", base + "/query?" + q.Encode(), nil
}

// conn is one keep-alive connection's script: the streams it cycles
// through, and either a closed loop (rate 0: the next query leaves when
// the previous answer has arrived) or an open loop on a fixed, evenly
// spaced schedule (rate per second, first query due at phase).
type conn struct {
	streams []*stream
	rate    float64
	phase   time.Duration
}

type workload struct {
	name  string
	conns []conn // never more than two: the host has two cores
}

func (w *workload) open() bool { return w.conns[0].rate > 0 }

// lane says which of the connections playing the same script connection i
// is, and how many there are: two closed-loop clients of one stream split
// its root pool between them, an open loop's connections each own theirs.
func (w *workload) lane(i int) (rank, share int) {
	for j, c := range w.conns {
		if c.streams[0] == w.conns[i].streams[0] {
			if j < i {
				rank++
			}
			share++
		}
	}
	return rank, share
}

// primary is the stream whose latency percentiles are the workload's
// end-to-end figures.
func (w *workload) primary() *stream { return w.conns[0].streams[0] }

func (w *workload) streams() []*stream {
	var out []*stream
	seen := map[*stream]bool{}
	for _, c := range w.conns {
		for _, s := range c.streams {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

var (
	kronBFS  = &stream{graph: "kron", algo: "bfs", timeout: stallGrace, limit: 100 * time.Millisecond}
	roadBFS  = &stream{graph: "road", algo: "bfs", timeout: stallGrace, limit: 200 * time.Millisecond}
	tinyFull = &stream{graph: "tiny", algo: "bfs", full: true, post: true, timeout: stallGrace, limit: 10 * time.Millisecond}
	midSSSP  = &stream{graph: "mid", algo: "sssp", timeout: stallGrace, limit: 500 * time.Millisecond}
	midPR    = &stream{graph: "mid", algo: "pagerank", class: "batch", timeout: stallGrace, limit: time.Second}
	midCC    = &stream{graph: "mid", algo: "cc", class: "batch", timeout: stallGrace, limit: time.Second}
	midPBFS  = &stream{graph: "mid", algo: "parentbfs", class: "batch", timeout: stallGrace, limit: time.Second}
)

// warmStreams is the fixed warm-up: every (graph, algorithm) pair any
// workload uses, whichever workload runs, so that set-up is the same work
// everywhere. The ParentBFS warm-up asks for full payloads so that its
// tree invariant is checked where it costs no window time; mid's lazily
// built weighted copy is built by the first SSSP query here.
var warmStreams = []*stream{
	kronBFS, roadBFS, tinyFull, midSSSP, midPR, midCC,
	{graph: "mid", algo: "parentbfs", class: "batch", full: true, timeout: stallGrace},
}

// BENCHMARK.json says why each workload is here.
var workloads = []*workload{
	{
		name: "kron-bfs",
		conns: []conn{
			{streams: []*stream{kronBFS}},
			{streams: []*stream{kronBFS}},
		},
	},
	{
		name: "road-bfs",
		conns: []conn{
			{streams: []*stream{roadBFS}},
			{streams: []*stream{roadBFS}},
		},
	},
	{
		name: "tiny-full",
		conns: []conn{
			{streams: []*stream{tinyFull}},
			{streams: []*stream{tinyFull}},
		},
	},
	{
		name: "mix-valued",
		conns: []conn{
			// Every batch query arrives together with an interactive one, and
			// a PageRank (some 60 ms beside SSSP) is still running when the
			// next one arrives 50 ms later. So 4 in 15 SSSP queries share the
			// cores with batch work, half of them with PageRank: the p90 sits
			// well inside that contended mode and the p50 well inside the
			// uncontended one, neither on an edge. At 16/s the p90 was the
			// fourth-slowest of the 21 queries that met a CC in a window, and
			// whether a PageRank reached the next slot, 62.5 ms on, varied
			// from run to run.
			{streams: []*stream{midSSSP}, rate: 20},
			{streams: []*stream{midPR, midCC, midPBFS}, rate: 4},
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
