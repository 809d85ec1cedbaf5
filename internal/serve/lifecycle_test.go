package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"pushpull/generate"
	"pushpull/generate/mmio"
	"pushpull/graphblas"
	"pushpull/internal/harness"
)

// toggleSource is a GraphSource whose Load alternates or fails on demand:
// the reload tests' stand-in for a file whose on-disk contents change (or
// corrupt) between SIGHUPs.
type toggleSource struct {
	name  string
	mu    sync.Mutex
	next  func(call int) (*Graph, error)
	calls int
}

func (ts *toggleSource) source() GraphSource {
	return GraphSource{Name: ts.name, Load: func() (*Graph, error) {
		ts.mu.Lock()
		ts.calls++
		call := ts.calls
		next := ts.next
		ts.mu.Unlock()
		return next(call)
	}}
}

func (ts *toggleSource) set(next func(call int) (*Graph, error)) {
	ts.mu.Lock()
	ts.next = next
	ts.mu.Unlock()
}

// releaseRecorder collects the registry's final-release sentinel.
type releaseRecorder struct {
	mu   sync.Mutex
	gens map[string][]uint64
}

func newReleaseRecorder() *releaseRecorder {
	return &releaseRecorder{gens: make(map[string][]uint64)}
}

func (rr *releaseRecorder) hook(name string, gen uint64) {
	rr.mu.Lock()
	rr.gens[name] = append(rr.gens[name], gen)
	rr.mu.Unlock()
}

func (rr *releaseRecorder) released(name string, gen uint64) bool {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for _, g := range rr.gens[name] {
		if g == gen {
			return true
		}
	}
	return false
}

func (rr *releaseRecorder) count(name string) int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.gens[name])
}

// TestReloadSwapsGeneration: a successful reload installs a new snapshot
// generation, new queries run on it (Result.Gen bumps), and the retired
// generation frees once nothing references it.
func TestReloadSwapsGeneration(t *testing.T) {
	ts := &toggleSource{name: "g"}
	ts.set(func(int) (*Graph, error) { return kronGraph(t, 6), nil })
	srv, err := NewFromSources(Config{Workers: 2}, []GraphSource{ts.source()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := newReleaseRecorder()
	srv.SetReleaseHook(rec.hook)

	res, err := srv.Do(context.Background(), Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 1 {
		t.Fatalf("first query ran on gen %d, want 1", res.Gen)
	}

	rep := srv.Reload(context.Background())
	if rep.OK != 1 || rep.Failed != 0 {
		t.Fatalf("reload report %+v, want 1 ok", rep)
	}
	if rep.Results[0].Gen != 2 || rep.Results[0].Status != GraphServing {
		t.Fatalf("reload result %+v, want gen 2 serving", rep.Results[0])
	}

	res2, err := srv.Do(context.Background(), Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Gen != 2 {
		t.Fatalf("post-reload query ran on gen %d, want 2", res2.Gen)
	}
	if res2.Payload.Checksum != res.Payload.Checksum {
		t.Fatalf("same data across generations produced checksums %x vs %x", res.Payload.Checksum, res2.Payload.Checksum)
	}

	// Gen 1 was retired with no queries in flight: it must already be free.
	waitFor(t, "retired gen 1 to release", func() bool { return rec.released("g", 1) })
	snap := srv.Metrics().Snapshot()
	lc := snap.Lifecycle
	if lc.SnapshotsInstalled != 2 || lc.SnapshotsRetired != 1 || lc.SnapshotsReleased != 1 {
		t.Errorf("lifecycle counters installed/retired/released = %d/%d/%d, want 2/1/1",
			lc.SnapshotsInstalled, lc.SnapshotsRetired, lc.SnapshotsReleased)
	}
	if lc.Reloads != 1 || lc.ReloadFailures != 0 {
		t.Errorf("reload counters = %d ok / %d failed, want 1/0", lc.Reloads, lc.ReloadFailures)
	}
}

// TestReloadRollback: a reload whose load or validation fails leaves the
// old snapshot serving untouched, records the structured reason on the
// graph's /metrics entry, and a later good reload clears it.
func TestReloadRollback(t *testing.T) {
	ts := &toggleSource{name: "g"}
	good := func(int) (*Graph, error) { return kronGraph(t, 6), nil }
	ts.set(good)
	srv, err := NewFromSources(Config{Workers: 1}, []GraphSource{ts.source()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before, err := srv.Do(context.Background(), Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}

	ts.set(func(int) (*Graph, error) { return nil, errors.New("disk went missing") })
	rep := srv.Reload(context.Background())
	if rep.Failed != 1 || rep.OK != 0 {
		t.Fatalf("reload report %+v, want 1 failed", rep)
	}
	r0 := rep.Results[0]
	if r0.Status != GraphServing || r0.Gen != 1 {
		t.Fatalf("rollback left %s gen %d, want serving gen 1", r0.Status, r0.Gen)
	}
	if !strings.Contains(r0.Error, "disk went missing") {
		t.Fatalf("rollback reason %q does not carry the load error", r0.Error)
	}

	// The old snapshot keeps serving identical results.
	after, err := srv.Do(context.Background(), Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatalf("query after rollback: %v", err)
	}
	if after.Gen != 1 || after.Payload.Checksum != before.Payload.Checksum {
		t.Fatalf("post-rollback query: gen %d checksum %x, want gen 1 checksum %x",
			after.Gen, after.Payload.Checksum, before.Payload.Checksum)
	}

	// The structured reason is on the graph's lifecycle surface.
	lc := srv.Metrics().Snapshot().Lifecycle
	if lc.ReloadFailures != 1 {
		t.Errorf("reload failures = %d, want 1", lc.ReloadFailures)
	}
	gi := srv.GraphInfos()[0]
	if gi.Status != GraphServing || !strings.Contains(gi.Error, "disk went missing") {
		t.Errorf("graph info after rollback: %+v, want serving with the failure reason", gi)
	}
	if srv.Degraded() {
		t.Error("rollback must not degrade a graph that still serves")
	}

	// A validation failure rolls back the same way as a load failure.
	ts.set(func(int) (*Graph, error) {
		rows := []uint32{0}
		cols := []uint32{1}
		m, err := graphblas.NewMatrixFromCOO(2, 3, rows, cols, []bool{true}, nil)
		if err != nil {
			return nil, err
		}
		return NewGraph("g", m), nil
	})
	rep = srv.Reload(context.Background())
	if rep.Failed != 1 || !strings.Contains(rep.Results[0].Error, "square") {
		t.Fatalf("non-square reload report %+v, want validation failure", rep)
	}

	// Fixing the source brings the next reload through and clears the error.
	ts.set(good)
	rep = srv.Reload(context.Background())
	if rep.OK != 1 || rep.Results[0].Gen != 2 {
		t.Fatalf("recovery reload report %+v, want gen 2", rep)
	}
	if gi := srv.GraphInfos()[0]; gi.Error != "" {
		t.Errorf("recovered graph still carries error %q", gi.Error)
	}
}

// TestDegradedStartAndRecovery: a bad source leaves the process alive
// serving its valid subset — the failed graph answers 503 and readiness
// reports false — and a reload that fixes the source flips both back.
func TestDegradedStartAndRecovery(t *testing.T) {
	bad := &toggleSource{name: "bad"}
	bad.set(func(int) (*Graph, error) { return nil, errors.New("corrupt fixture") })
	goodSrc := GraphSource{Name: "good", Load: func() (*Graph, error) { return kronGraph(t, 6), nil }}

	// Degraded start with zero live graphs still refuses.
	if _, err := NewFromSources(Config{Workers: 1}, []GraphSource{bad.source()}); err == nil {
		t.Fatal("degraded start with no live graph accepted")
	}
	// A duplicate name is a bad request, not a degraded graph.
	if _, err := NewFromSources(Config{Workers: 1}, []GraphSource{goodSrc, goodSrc}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("duplicate graph name: %v, want ErrBadRequest", err)
	}

	srv, err := NewFromSources(Config{Workers: 1}, []GraphSource{goodSrc, bad.source()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if !srv.Degraded() || srv.Ready() {
		t.Fatalf("degraded=%v ready=%v, want degraded and not ready", srv.Degraded(), srv.Ready())
	}
	if lc := srv.Metrics().Snapshot().Lifecycle; !lc.Degraded {
		t.Error("metrics lifecycle does not report degraded")
	}

	// The valid subset serves; the failed graph answers 503 with the reason.
	if _, err := srv.Do(context.Background(), Request{Graph: "good", Algo: "bfs"}); err != nil {
		t.Fatalf("query on live graph while degraded: %v", err)
	}
	_, err = srv.Do(context.Background(), Request{Graph: "bad", Algo: "bfs"})
	if !errors.Is(err, ErrGraphUnavailable) {
		t.Fatalf("query on failed graph: %v, want ErrGraphUnavailable", err)
	}
	if got := HTTPStatus(err); got != http.StatusServiceUnavailable {
		t.Errorf("HTTPStatus = %d, want 503", got)
	}
	if !strings.Contains(err.Error(), "corrupt fixture") {
		t.Errorf("unavailable error %q does not carry the load failure", err)
	}
	var badInfo GraphInfo
	for _, gi := range srv.GraphInfos() {
		if gi.Name == "bad" {
			badInfo = gi
		}
	}
	if badInfo.Status != GraphFailed || badInfo.Gen != 0 || !strings.Contains(badInfo.Error, "corrupt fixture") {
		t.Errorf("failed graph info %+v", badInfo)
	}

	// Fix the source; reload recovers the graph and readiness flips.
	bad.set(func(int) (*Graph, error) { return pathGraph(t, 64), nil })
	rep := srv.Reload(context.Background())
	if rep.Failed != 0 || rep.OK != 2 {
		t.Fatalf("recovery reload report %+v, want both graphs ok", rep)
	}
	if srv.Degraded() || !srv.Ready() {
		t.Fatalf("after recovery degraded=%v ready=%v", srv.Degraded(), srv.Ready())
	}
	res, err := srv.Do(context.Background(), Request{Graph: "bad", Algo: "bfs"})
	if err != nil {
		t.Fatalf("query on recovered graph: %v", err)
	}
	if res.Gen != 1 {
		t.Errorf("recovered graph serves gen %d, want 1 (first successful install)", res.Gen)
	}
}

// TestLoadPanicsAreLoadErrors: a panicking loader (and a loader returning
// a nil graph) degrade to structured load failures, never a process death.
func TestLoadPanicsAreLoadErrors(t *testing.T) {
	panicSrc := GraphSource{Name: "p", Load: func() (*Graph, error) { panic("loader exploded") }}
	if _, err := NewFromSources(Config{Workers: 1}, []GraphSource{panicSrc}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking loader: %v, want load-panicked error", err)
	}
	nilSrc := GraphSource{Name: "n", Load: func() (*Graph, error) { return nil, nil }}
	if _, err := NewFromSources(Config{Workers: 1}, []GraphSource{nilSrc}); err == nil || !strings.Contains(err.Error(), "nil graph") {
		t.Fatalf("nil-graph loader: %v, want nil-graph error", err)
	}
}

// TestSnapshotDrainBeforeRelease is the torn-graph guard: a reload while a
// query holds the current generation retires it but must not free it until
// that reference is released; meanwhile new queries already run on the new
// generation. The test holds generation 1 itself — the reference an
// admitted query takes — so the drain does not depend on how long a
// traversal outlives the reload's load, validation and GC.
func TestSnapshotDrainBeforeRelease(t *testing.T) {
	srv, err := NewFromSources(Config{Workers: 2},
		[]GraphSource{{Name: "path", Load: func() (*Graph, error) { return pathGraph(t, 1000), nil }}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := newReleaseRecorder()
	srv.SetReleaseHook(rec.hook)

	held, err := srv.registry.acquire("path")
	if err != nil {
		t.Fatal(err)
	}
	if held.gen != 1 {
		t.Fatalf("held generation %d, want 1", held.gen)
	}

	rep := srv.Reload(context.Background())
	if rep.OK != 1 {
		t.Fatalf("reload under a held reference: %+v", rep)
	}
	// Gen 1 is retired but still held: not released.
	lc := srv.Metrics().Snapshot().Lifecycle
	if lc.SnapshotsRetired != 1 {
		t.Fatalf("retired = %d, want 1", lc.SnapshotsRetired)
	}
	if rec.released("path", 1) || lc.SnapshotsReleased != 0 {
		t.Fatal("retired snapshot released while a query still held it")
	}
	size := mappedSize(held.graph.Mat)
	if got := srv.Metrics().Snapshot().Runtime.GraphMappedBytes; got != 2*size {
		t.Errorf("graph_mapped_bytes = %d with one generation draining, want 2 × %d", got, size)
	}

	// New queries land on gen 2 while the old one drains.
	res, err := srv.Do(context.Background(), Request{Graph: "path", Algo: "bfs", Source: 998})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 {
		t.Fatalf("query during drain ran on gen %d, want 2", res.Gen)
	}
	if rec.released("path", 1) {
		t.Fatal("retired snapshot released while a query still held it")
	}

	// Dropping the last reference is what frees the retired snapshot.
	held.release()
	if !rec.released("path", 1) {
		t.Fatal("retired snapshot not released after its last reference dropped")
	}
	if n := rec.count("path"); n != 1 {
		t.Errorf("release sentinel fired %d times, want exactly 1", n)
	}
	if lc := srv.Metrics().Snapshot().Lifecycle; lc.SnapshotsReleased != 1 {
		t.Errorf("released = %d, want 1", lc.SnapshotsReleased)
	}
	if got := srv.Metrics().Snapshot().Runtime.GraphMappedBytes; got != size {
		t.Errorf("graph_mapped_bytes = %d after the drain, want %d", got, size)
	}
}

// TestReloadUnderTrafficStress is the acceptance stress (run it with
// -race): clients hammer queries while the main goroutine reloads in a
// loop, alternating the source between two structurally different graphs.
// Every result's checksum must match the oracle for the generation it ran
// on — a query that observed a half-swapped graph cannot do that — and
// after the drain every retired generation must have fired its release
// sentinel exactly once.
func TestReloadUnderTrafficStress(t *testing.T) {
	graphA := pathGraph(t, 64)
	graphB := kronGraph(t, 6)

	// Per-matrix oracle checksums from a strict single-worker server.
	oracle := make(map[*Graph]uint64)
	for _, g := range []*Graph{graphA, graphB} {
		osrv, err := New(Config{Workers: 1}, NewGraph("o", g.Mat))
		if err != nil {
			t.Fatal(err)
		}
		res, err := osrv.Do(context.Background(), Request{Graph: "o", Algo: "bfs"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Payload.Checksum == 0 {
			t.Fatal("oracle produced a zero checksum")
		}
		oracle[g] = res.Payload.Checksum
		osrv.Close()
	}
	if oracle[graphA] == oracle[graphB] {
		t.Fatal("stress graphs are not distinguishable by checksum")
	}

	// Load alternates A, B, A, B... so generation g serves A when g is odd.
	ts := &toggleSource{name: "g"}
	ts.set(func(call int) (*Graph, error) {
		if call%2 == 1 {
			return NewGraph("g", graphA.Mat), nil
		}
		return NewGraph("g", graphB.Mat), nil
	})
	wantChecksum := func(gen uint64) uint64 {
		if gen%2 == 1 {
			return oracle[graphA]
		}
		return oracle[graphB]
	}

	srv, err := NewFromSources(Config{Workers: 4, QueueDepth: 64}, []GraphSource{ts.source()})
	if err != nil {
		t.Fatal(err)
	}
	rec := newReleaseRecorder()
	srv.SetReleaseHook(rec.hook)

	const clients = 8
	const reloads = 25
	stop := make(chan struct{})
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	var served atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := srv.Do(context.Background(), Request{Graph: "g", Algo: "bfs"})
				if errors.Is(err, ErrQueueFull) {
					continue // shed load is a valid outcome under the storm
				}
				if err != nil {
					errs <- fmt.Errorf("query: %v", err)
					return
				}
				if want := wantChecksum(res.Gen); res.Payload.Checksum != want {
					errs <- fmt.Errorf("gen %d: checksum %x, oracle %x — snapshot torn by reload",
						res.Gen, res.Payload.Checksum, want)
					return
				}
				served.Add(1)
			}
		}()
	}

	lastGen := uint64(1)
	for i := 0; i < reloads; i++ {
		// Let each generation actually serve before swapping it out, so
		// the storm genuinely interleaves queries with every reload.
		before := served.Load()
		waitFor(t, "queries to land on the current generation", func() bool {
			return served.Load() >= before+2
		})
		rep := srv.Reload(context.Background())
		if rep.Failed != 0 {
			t.Errorf("reload %d failed: %+v", i, rep)
		}
		lastGen = rep.Results[0].Gen
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if served.Load() == 0 {
		t.Fatal("stress served no queries")
	}
	if lastGen != uint64(1+reloads) {
		t.Fatalf("final generation %d, want %d", lastGen, 1+reloads)
	}
	// Once every retired generation has drained (a worker releases its
	// snapshot just after it hands the result back), only the serving one
	// is still mapped. A leaked region reads high here, and a region
	// unmapped twice panics.
	waitFor(t, "every retired generation to drain", func() bool {
		return srv.Metrics().Snapshot().Lifecycle.SnapshotsReleased == reloads
	})
	want := mappedSize(graphB.Mat)
	if lastGen%2 == 1 {
		want = mappedSize(graphA.Mat)
	}
	if got := srv.Metrics().Snapshot().Runtime.GraphMappedBytes; got != want {
		t.Errorf("graph_mapped_bytes = %d after the reloads drained, want the serving graph's %d", got, want)
	}

	// Close drains everything: every generation ever installed must have
	// retired and fired its release sentinel exactly once.
	srv.Close()
	lc := srv.Metrics().Snapshot().Lifecycle
	if lc.SnapshotsInstalled != uint64(1+reloads) {
		t.Errorf("installed = %d, want %d", lc.SnapshotsInstalled, 1+reloads)
	}
	if lc.SnapshotsRetired != lc.SnapshotsInstalled {
		t.Errorf("retired = %d, want %d (close retires the last snapshot)", lc.SnapshotsRetired, lc.SnapshotsInstalled)
	}
	if lc.SnapshotsReleased != lc.SnapshotsRetired {
		t.Errorf("released = %d, retired = %d — a retired snapshot leaked", lc.SnapshotsReleased, lc.SnapshotsRetired)
	}
	if got := srv.Metrics().Snapshot().Runtime.GraphMappedBytes; got != 0 {
		t.Errorf("graph_mapped_bytes = %d after close, want 0", got)
	}
	for gen := uint64(1); gen <= uint64(1+reloads); gen++ {
		if !rec.released("g", gen) {
			t.Errorf("generation %d never fired its release sentinel", gen)
		}
	}
	if n := rec.count("g"); n != 1+reloads {
		t.Errorf("release sentinel fired %d times, want %d", n, 1+reloads)
	}
}

// TestPruneStaleWorkspaces: a worker's pinned arenas for shapes no serving
// snapshot has anymore are dropped at the next epoch check, while live
// shapes stay pinned (the zero-alloc warm path survives same-shape
// reloads).
func TestPruneStaleWorkspaces(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 6)) // live shape 64×64
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w := srv.newWorker(99) // private worker, never enters the pool
	defer w.releaseAll()
	live := [2]int{64, 64}
	stale := [2]int{128, 128}
	w.pinned[live] = graphblas.AcquireWorkspace(64, 64)
	w.pinned[stale] = graphblas.AcquireWorkspace(128, 128)

	w.pruneStale(srv.registry)
	if w.pinned[stale] != nil {
		t.Error("stale-shape workspace survived the prune")
	}
	if w.pinned[live] == nil {
		t.Error("live-shape workspace was pruned")
	}

	// Same epoch → no rescan: a re-added stale shape stays until the next
	// registry change bumps the epoch.
	w.pinned[stale] = graphblas.AcquireWorkspace(128, 128)
	w.pruneStale(srv.registry)
	if w.pinned[stale] == nil {
		t.Error("prune rescanned without an epoch change")
	}
}

// TestInstallResetsGCPacer: a successful install ends with a forced
// collection, so the heap goal the first queries run against is derived
// from what the server keeps — not from the builder's transients, which is
// what the last automatic cycle of a load sees. Checked two ways: the goal
// is within GOGC=100's 2× (plus slack) of the live heap, or at the
// runtime's 4 MB minimum goal — the graph is mapped outside the heap, so
// what is left on it can be too small for 2.5× to reach that floor — and a
// second collection finds nothing left to free.
func TestInstallResetsGCPacer(t *testing.T) {
	src := GraphSource{Name: "kron", Load: func() (*Graph, error) { return kronGraph(t, 14), nil }}
	srv, err := NewFromSources(Config{Workers: 1}, []GraphSource{src})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var loaded, collected runtime.MemStats
	runtime.ReadMemStats(&loaded)
	runtime.GC()
	runtime.ReadMemStats(&collected)
	const minGoal = 4 << 20 // the Go runtime sets no heap goal below it
	if float64(loaded.NextGC) > max(2.5*float64(loaded.HeapAlloc), minGoal) {
		t.Errorf("after load: heap goal %d B is more than 2.5× the %d B in use and more than the 4 MB floor", loaded.NextGC, loaded.HeapAlloc)
	}
	if slack := collected.HeapAlloc/10 + 256<<10; loaded.HeapAlloc > collected.HeapAlloc+slack {
		t.Errorf("after load: %d B in use, but a collection brings it to %d B — the load's garbage was still on the heap",
			loaded.HeapAlloc, collected.HeapAlloc)
	}
}

// mappedSize is the region install maps for m: the Ptr and Ind of each
// orientation m stores, rounded up to whole pages. Off Linux the snapshot
// serves the loaded matrix, on the heap, and nothing is mapped.
func mappedSize(m *graphblas.Matrix[bool]) int64 {
	if runtime.GOOS != "linux" {
		return 0
	}
	b := 8*len(m.CSR().Ptr) + 4*len(m.CSR().Ind)
	if !m.Symmetric() {
		b += 8*len(m.CSC().Ptr) + 4*len(m.CSC().Ind)
	}
	page := os.Getpagesize()
	return int64((b + page - 1) / page * page)
}

// TestInstallKeepsOnlyThePattern: a served graph is its Ptr and Ind and
// nothing else — no value array, no transpose of a symmetric graph, no
// builder transients — and on Linux they sit in the snapshot's mapped
// region, off the heap. Checked on the heap the load leaves behind
// (kron:14) and, for every generator family and the Matrix Market reader,
// on the installed matrix and its region: exactly the page-rounded Ptr and
// Ind of each stored orientation, which graph_mapped_bytes sums.
func TestInstallKeepsOnlyThePattern(t *testing.T) {
	installed := func(srv *Server, name string) *graphblas.Matrix[bool] {
		t.Helper()
		snap, err := srv.registry.acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.release()
		m := snap.graph.Mat
		if got, want := int64(len(snap.region)), mappedSize(m); got != want {
			t.Errorf("%s: region of %d B, want the page-rounded Ptr and Ind, %d B", name, got, want)
		}
		if snap.region != nil {
			lo := uintptr(unsafe.Pointer(&snap.region[0]))
			hi := lo + uintptr(len(snap.region))
			for _, p := range []uintptr{uintptr(unsafe.Pointer(&m.CSR().Ptr[0])), uintptr(unsafe.Pointer(&m.CSC().Ind[0]))} {
				if p < lo || p >= hi {
					t.Errorf("%s: an index array at %#x is outside the region [%#x, %#x)", name, p, lo, hi)
				}
			}
		}
		return m
	}

	var base, loaded runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	src := GraphSource{Name: "kron", Load: func() (*Graph, error) { return kronGraph(t, 14), nil }}
	srv, err := NewFromSources(Config{Workers: 1}, []GraphSource{src})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	runtime.ReadMemStats(&loaded)
	csr := installed(srv, "kron").CSR()
	pattern := 8*uint64(len(csr.Ptr)) + 4*uint64(len(csr.Ind))
	limit := uint64(1 << 20) // the graph is mapped, not on the heap
	if runtime.GOOS != "linux" {
		limit += pattern + pattern/4
	}
	if loaded.HeapAlloc > base.HeapAlloc+limit {
		t.Errorf("installing kron:14 left %d B on the heap; its Ptr and Ind are %d B, limit %d B",
			loaded.HeapAlloc-base.HeapAlloc, pattern, limit)
	}

	mm := "%%MatrixMarket matrix coordinate pattern general\n4 4 4\n1 2\n2 3\n3 1\n4 4\n"
	loaders := map[string]func() (*graphblas.Matrix[bool], error){
		"rmat": func() (*graphblas.Matrix[bool], error) { return harness.LoadGraph("", "kron", 10) },
		"rmat-directed": func() (*graphblas.Matrix[bool], error) {
			return generate.RMAT(generate.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 7})
		},
		"grid": func() (*graphblas.Matrix[bool], error) { return generate.Grid2D(20, 30) },
		"rgg":  func() (*graphblas.Matrix[bool], error) { return generate.RGG(800, 0.06, 5) },
		"er":   func() (*graphblas.Matrix[bool], error) { return generate.ErdosRenyi(700, 0.01, 11) },
		"mmio": func() (*graphblas.Matrix[bool], error) { return mmio.ReadPattern(strings.NewReader(mm)) },
	}
	var sources []GraphSource
	for name, load := range loaders {
		name, load := name, load
		sources = append(sources, GraphSource{Name: name, Load: func() (*Graph, error) {
			m, err := load()
			if err != nil {
				return nil, err
			}
			return NewGraph(name, m), nil
		}})
	}
	all, err := NewFromSources(Config{Workers: 1}, sources)
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	var mapped int64
	for name := range loaders {
		m := installed(all, name)
		if m.NVals() == 0 || m.CSR().Val != nil || m.CSC().Val != nil {
			t.Errorf("%s: %d entries, stored values: CSR %v CSC %v; want a non-empty pattern-only matrix",
				name, m.NVals(), m.CSR().Val != nil, m.CSC().Val != nil)
		}
		mapped += mappedSize(m)
	}
	if got := all.Metrics().Snapshot().Runtime.GraphMappedBytes; got != mapped {
		t.Errorf("graph_mapped_bytes = %d, the installed patterns' page-rounded size is %d", got, mapped)
	}
	for _, directed := range []string{"rmat-directed", "mmio"} {
		if installed(all, directed).Symmetric() {
			t.Errorf("%s installed symmetric; the region check above did not cover a CSC", directed)
		}
	}
}
