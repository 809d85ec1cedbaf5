//go:build faultinject

package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"pushpull/graphblas"
	"pushpull/internal/faultinject"
	"pushpull/internal/par"
)

// TestPoolSurvivesKernelPanic injects a kernel panic into one query's
// matvec and pins the serving contract around it: the query fails with
// ErrKernelPanic (HTTP 500, stack kept out of the public message), the
// worker drops its tainted pinned workspace, and the pool keeps serving —
// subsequent queries on every algorithm return oracle-identical checksums
// with no stranded parallel workers.
func TestPoolSurvivesKernelPanic(t *testing.T) {
	g := kronGraph(t, 8)
	srv, err := New(Config{Workers: 2}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Oracle checksums before any fault.
	oracle := make(map[string]uint64)
	for _, algo := range AlgorithmNames() {
		res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: algo, Source: 3})
		if err != nil {
			t.Fatalf("pre-fault %s: %v", algo, err)
		}
		oracle[algo] = res.Payload.Checksum
	}
	base := par.ParkedWorkers()

	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 2, func() {
		panic("injected serve fault")
	})
	defer disarm()
	_, err = srv.Do(context.Background(), Request{Graph: "kron", Algo: "bfs", Source: 3})
	if !errors.Is(err, graphblas.ErrKernelPanic) {
		t.Fatalf("faulted query: %v, want ErrKernelPanic", err)
	}
	if got := HTTPStatus(err); got != http.StatusInternalServerError {
		t.Errorf("HTTPStatus = %d, want 500", got)
	}
	if pub := PublicErrorMessage(err); strings.Contains(pub, "goroutine") || strings.Contains(pub, "injected") {
		t.Errorf("public message leaks diagnostics: %q", pub)
	}
	disarm()

	// The pool keeps serving, results stay oracle-identical on the fresh
	// scratch the panicked worker re-acquired.
	for round := 0; round < 3; round++ {
		for _, algo := range AlgorithmNames() {
			res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: algo, Source: 3})
			if err != nil {
				t.Fatalf("post-fault %s: %v", algo, err)
			}
			if res.Payload.Checksum != oracle[algo] {
				t.Errorf("post-fault %s: checksum %x, oracle %x", algo, res.Payload.Checksum, oracle[algo])
			}
		}
	}

	waitFor(t, "parked workers to return to baseline", func() bool {
		return par.ParkedWorkers() == base
	})
	snap := srv.Metrics().Snapshot()
	if snap.Algorithms["bfs"].Panics != 1 {
		t.Errorf("bfs panic count = %d, want 1", snap.Algorithms["bfs"].Panics)
	}
	// The faulted query's record carries only the public message.
	for _, q := range srv.Queries() {
		if strings.Contains(q.Status, "goroutine") || strings.Contains(q.Status, "injected") {
			t.Errorf("query %d status leaks diagnostics: %q", q.ID, q.Status)
		}
	}
}

// faultQuery runs one query with a kernel panic armed for it and asserts
// it died to the fault.
func faultQuery(t *testing.T, srv *Server, req Request) {
	t.Helper()
	disarm := faultinject.Arm(faultinject.SiteMxVKernel, 1, func() {
		panic("injected streak fault")
	})
	defer disarm()
	if _, err := srv.Do(context.Background(), req); !errors.Is(err, graphblas.ErrKernelPanic) {
		t.Fatalf("armed query: %v, want ErrKernelPanic", err)
	}
}

// TestWorkerSelfHealing: faultStreakLimit (3) consecutive kernel faults retire
// the worker — the pool replaces it with a fresh goroutine (new worker id,
// same slot), counts the retirement in /metrics, and keeps serving
// oracle-identical results. A success between faults resets the streak, so
// scattered faults never trip the limit.
func TestWorkerSelfHealing(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := Request{Graph: "kron", Algo: "bfs", Source: 3}

	oracleRes, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleRes.Payload.Checksum
	initialID := srv.workerIDs()[0]

	// Two faults, a success, two faults: streak never reaches 3.
	faultQuery(t, srv, req)
	faultQuery(t, srv, req)
	if res, err := srv.Do(context.Background(), req); err != nil || res.Payload.Checksum != oracle {
		t.Fatalf("streak-resetting query: %v (checksum %x, oracle %x)", err, res.Payload.Checksum, oracle)
	}
	faultQuery(t, srv, req)
	faultQuery(t, srv, req)
	snap := srv.Metrics().Snapshot()
	if snap.Lifecycle.WorkerRetirements != 0 {
		t.Fatalf("scattered faults retired a worker (retirements = %d)", snap.Lifecycle.WorkerRetirements)
	}
	if snap.Lifecycle.FaultStreakHighWater != 2 {
		t.Errorf("fault streak high water = %d, want 2", snap.Lifecycle.FaultStreakHighWater)
	}

	// A third consecutive fault trips the limit.
	faultQuery(t, srv, req)
	waitFor(t, "worker to be replaced", func() bool {
		return srv.workerIDs()[0] != initialID
	})
	snap = srv.Metrics().Snapshot()
	if snap.Lifecycle.WorkerRetirements != 1 {
		t.Errorf("worker retirements = %d, want 1", snap.Lifecycle.WorkerRetirements)
	}
	if snap.Lifecycle.FaultStreakHighWater != 3 {
		t.Errorf("fault streak high water = %d, want 3", snap.Lifecycle.FaultStreakHighWater)
	}

	// The replacement worker serves correctly on fresh scratch.
	for i := 0; i < 3; i++ {
		res, err := srv.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("post-replacement query %d: %v", i, err)
		}
		if res.Payload.Checksum != oracle {
			t.Errorf("post-replacement query %d: checksum %x, oracle %x", i, res.Payload.Checksum, oracle)
		}
	}
}

// TestReloadFaultSites: panics injected into the lifecycle's load and
// validate paths surface as reload rollbacks — the old snapshot keeps
// serving, the failure is counted and recorded — never as a process death.
func TestReloadFaultSites(t *testing.T) {
	srv, err := New(Config{Workers: 1}, kronGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := Request{Graph: "kron", Algo: "bfs"}
	before, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	for i, site := range []string{faultinject.SiteServeLoad, faultinject.SiteServeValidate} {
		disarm := faultinject.Arm(site, 1, func() { panic("injected lifecycle fault") })
		rep := srv.Reload(context.Background())
		disarm()
		if rep.Failed != 1 || rep.OK != 0 {
			t.Fatalf("%s: reload report %+v, want rollback", site, rep)
		}
		if !strings.Contains(rep.Results[0].Error, "panicked") {
			t.Errorf("%s: rollback reason %q does not say the stage panicked", site, rep.Results[0].Error)
		}
		res, err := srv.Do(context.Background(), req)
		if err != nil || res.Payload.Checksum != before.Payload.Checksum {
			t.Fatalf("%s: post-rollback query: %v (checksum %x, want %x)", site, err, res.Payload.Checksum, before.Payload.Checksum)
		}
		if res.Gen != 1 {
			t.Errorf("%s: post-rollback query ran on gen %d, want 1", site, res.Gen)
		}
		if lc := srv.Metrics().Snapshot().Lifecycle; lc.ReloadFailures != uint64(i+1) {
			t.Errorf("%s: reload failures = %d, want %d", site, lc.ReloadFailures, i+1)
		}
	}

	// With nothing armed the next reload goes through.
	if rep := srv.Reload(context.Background()); rep.OK != 1 || rep.Results[0].Gen != 2 {
		t.Fatalf("clean reload after injected faults: %+v", rep)
	}
}
