package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pushpull/graphblas"
)

// refold recomputes a full payload's checksum from the array it carries.
func refold(t *testing.T, p Payload) uint64 {
	t.Helper()
	h := uint64(fnvOffset64)
	switch {
	case p.Depths != nil:
		for _, d := range p.Depths {
			h = fnvFold(h, uint64(d), unsafe.Sizeof(d))
		}
	case p.Parents != nil:
		for _, v := range p.Parents {
			h = fnvFold(h, uint64(v), unsafe.Sizeof(v))
		}
	case p.Labels != nil:
		for _, l := range p.Labels {
			h = fnvFold(h, uint64(l), unsafe.Sizeof(l))
		}
	case p.Dist != nil:
		h = checksumFloat64(p.Dist)
	case p.Ranks != nil:
		h = checksumFloat64(p.Ranks)
	default:
		t.Fatal("full payload carries no array")
	}
	return h
}

// TestFullPayloadOwnsItsArray is the aliasing guard on the pooled result
// buffers: an array that went out in a full payload must never be lent to a
// later query. Two workers serve 240 interleaved full and summary queries
// over two graphs of different n and all five algorithms; every full array is
// folded again only after all of them have run, and must still hash to its own
// checksum and to the single-worker answer. A buffer pooled by mistake would
// by then have been overwritten by a later query of the same width and length.
// (Under -race sync.Pool drops Puts, so the test asserts answers, never hits.)
func TestFullPayloadOwnsItsArray(t *testing.T) {
	small, large := kronGraph(t, 7), kronGraph(t, 9)
	small.Name, large.Name = "small", "large"
	sources := []int{0, 3, 17, 101}

	type key struct {
		graph, algo string
		source      int
	}
	var keys []key
	for _, g := range []string{"small", "large"} {
		for _, algo := range AlgorithmNames() {
			for _, s := range sources {
				keys = append(keys, key{g, algo, s})
			}
		}
	}
	oracleSrv, err := New(Config{Workers: 1}, small, large)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[key]uint64, len(keys))
	for _, k := range keys {
		res, err := oracleSrv.Do(context.Background(), Request{Graph: k.graph, Algo: k.algo, Source: k.source})
		if err != nil {
			t.Fatalf("oracle %+v: %v", k, err)
		}
		oracle[k] = res.Payload.Checksum
	}
	oracleSrv.Close()

	srv, err := New(Config{Workers: 2, QueueDepth: 16}, small, large)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	type kept struct {
		key
		payload Payload
	}
	const clients, perClient = 4, 60
	full := make([][]kept, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Strides coprime to len(keys) walk every key; neighbouring
				// queries differ in graph, algorithm and payload kind.
				k := keys[(c*11+i*7)%len(keys)]
				req := Request{Graph: k.graph, Algo: k.algo, Source: k.source, Full: (i+c)%2 == 0}
				res, err := srv.Do(context.Background(), req)
				if err != nil {
					t.Errorf("%+v: %v", req, err)
					return
				}
				if res.Payload.Checksum != oracle[k] {
					t.Errorf("%+v: checksum %x, single-worker answer %x", req, res.Payload.Checksum, oracle[k])
				}
				if req.Full {
					full[c] = append(full[c], kept{k, res.Payload})
				}
			}
		}(c)
	}
	wg.Wait()

	checked := 0
	for _, list := range full {
		for _, f := range list {
			checked++
			if got := refold(t, f.payload); got != f.payload.Checksum || got != oracle[f.key] {
				t.Errorf("%+v: array folds to %x after later queries ran; its checksum %x, single-worker answer %x",
					f.key, got, f.payload.Checksum, oracle[f.key])
			}
		}
	}
	if checked < clients*perClient/2 {
		t.Fatalf("only %d full payloads checked", checked)
	}
}

// TestPartialResultBufferOwnership covers the same rule on the early-return
// path. A budget-tripped full query ships its partial array (HTTP 598,
// Partial): later queries must not overwrite it. A runner that returns a
// partial summary has no further use for the array and gives it back.
func TestPartialResultBufferOwnership(t *testing.T) {
	const n = 100_003 // a length no other test's pool shares
	g := pathGraph(t, n)
	srv, err := New(Config{Workers: 1, MinBudget: time.Millisecond}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A 1ms budget: the real traversal takes far longer.
	srv.pred.observe("path", "bfs", 0, float64(time.Millisecond)/budgetMultiple)

	res, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Full: true, Timeout: 10 * time.Second})
	if !errors.Is(err, graphblas.ErrBudgetExceeded) || !res.Partial || len(res.Payload.Depths) != n {
		t.Fatalf("full query: err %v, partial %v, %d depths; want a budget trip with the partial array", err, res.Partial, len(res.Payload.Depths))
	}
	// Different roots, so a shared array would change under the first result.
	for i := 1; i <= 4; i++ {
		if _, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Source: i * 1000, Timeout: 10 * time.Second}); !errors.Is(err, graphblas.ErrBudgetExceeded) {
			t.Fatalf("summary query %d: %v, want a budget trip", i, err)
		}
	}
	if got := refold(t, res.Payload); got != res.Payload.Checksum {
		t.Errorf("partial full array folds to %x after later queries, its checksum was %x", got, res.Payload.Checksum)
	}

	if raceEnabled {
		return // Puts are dropped at random: nothing to observe below
	}
	// The runner itself, cancelled before its first level: the summary path
	// puts the borrowed array back, the full path keeps it out of the pool.
	// A Get right after a Put on the same goroutine finds it unless the
	// goroutine changed P in between, so one hit in ten tries is the claim.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := srv.newWorker(0)
	defer w.releaseAll()
	lent := func(full bool) (hit bool) {
		for try := 0; try < 10 && !hit; try++ {
			p, err := runBFS(ctx, g, Request{Graph: "path", Algo: "bfs", Full: full}, w)
			if !errors.Is(err, graphblas.ErrCancelled) {
				t.Fatalf("runBFS(full=%v): %v, want ErrCancelled", full, err)
			}
			next := int32Bufs.get(n)
			if full {
				hit = &next[0] == &p.Depths[0]
			} else {
				// The summary payload holds no array; recognise the buffer by
				// what the cancelled run left in it: root 0, nothing else.
				hit = next[0] == 0 && next[1] == -1
				for i := range next {
					next[i] = math.MaxInt32
				}
			}
			// next is not put back: the next try must find its own.
		}
		return hit
	}
	if lent(true) {
		t.Error("an array carried by a partial full payload was lent out again")
	}
	if !lent(false) {
		t.Error("a partial summary query's array never came back to the pool")
	}
}

// TestResultsOutliveTheirSnapshot: nothing a query returns holds its
// graph's arrays, so results outlive the snapshot they ran on. A summary, a
// full payload (SSSP's, whose weighted copy shares the graph's Ptr and Ind)
// and a budget-trip partial are taken on generation 1; a reload retires it.
// Once it has drained and its region is unmapped — from then on a read of
// its arrays crashes the process instead of returning stale data — every
// result is encoded and its array folded again. The same queries then run
// on generation 2 over the workers' same pinned workspaces.
func TestResultsOutliveTheirSnapshot(t *testing.T) {
	const n = 50_021 // the path: long enough that a 1 ms budget trips
	sources := []GraphSource{
		{Name: "kron", Load: func() (*Graph, error) { return kronGraph(t, 10), nil }},
		{Name: "path", Load: func() (*Graph, error) { return pathGraph(t, n), nil }},
	}
	srv, err := NewFromSources(Config{Workers: 2, MinBudget: time.Millisecond}, sources)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Budgets follow the predictions: 1 ms for the path, seconds for the
	// kron queries, which must complete.
	srv.pred.observe("path", "bfs", 0, float64(time.Millisecond)/budgetMultiple)
	srv.pred.observe("kron", "bfs", 0, float64(time.Second))
	srv.pred.observe("kron", "sssp", 0, float64(time.Second))
	reqs := []Request{
		{Graph: "kron", Algo: "bfs", Source: 3},
		{Graph: "kron", Algo: "sssp", Source: 3, Full: true},
		{Graph: "path", Algo: "bfs", Full: true, Timeout: 10 * time.Second},
	}
	run := func(gen uint64) []Result {
		out := make([]Result, len(reqs))
		for i, req := range reqs {
			res, err := srv.Do(context.Background(), req)
			if partial := req.Graph == "path"; err != nil && !(partial && errors.Is(err, graphblas.ErrBudgetExceeded)) || res.Partial != partial {
				t.Fatalf("%+v: err %v, partial %v", req, err, res.Partial)
			}
			if res.Gen != gen {
				t.Fatalf("%+v ran on generation %d, want %d", req, res.Gen, gen)
			}
			out[i] = res
		}
		return out
	}
	before := run(1)

	if rep := srv.Reload(context.Background()); rep.Failed != 0 {
		t.Fatalf("reload: %+v", rep)
	}
	waitFor(t, "generation 1 to drain", func() bool {
		return srv.Metrics().Snapshot().Lifecycle.SnapshotsReleased == 2
	})
	var mapped int64
	for _, name := range []string{"kron", "path"} {
		snap, err := srv.registry.acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		mapped += mappedSize(snap.graph.Mat)
		snap.release()
	}
	if got := srv.Metrics().Snapshot().Runtime.GraphMappedBytes; got != mapped {
		t.Fatalf("graph_mapped_bytes = %d after generation 1 drained, want generation 2's %d", got, mapped)
	}

	for i, res := range before {
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%+v: encoding after its snapshot was unmapped: %v", reqs[i], err)
		}
		if reqs[i].Full {
			if got := refold(t, res.Payload); got != res.Payload.Checksum {
				t.Errorf("%+v: array folds to %x after its snapshot was unmapped, its checksum %x", reqs[i], got, res.Payload.Checksum)
			}
		}
	}
	after := run(2)
	for i := range reqs[:2] { // the partial stops wherever its budget ran out
		if after[i].Payload.Checksum != before[i].Payload.Checksum {
			t.Errorf("%+v: generation 2 answers %x, generation 1 answered %x", reqs[i], after[i].Payload.Checksum, before[i].Payload.Checksum)
		}
	}
}
