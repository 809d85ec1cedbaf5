//go:build faultinject

package graphblas

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pushpull/internal/faultinject"
	"pushpull/internal/par"
)

// TestInjectedShardPanic arms a panic on the second shard body dispatched
// by the range-sharded matvec: the fault fires on a par worker while
// sibling shards are still in flight. Contract: the panic surfaces on the
// calling goroutine as ErrKernelPanic carrying the injected value, the
// pinned workspace is tainted (treated as absent afterwards), no worker is
// stranded, and the next sharded call on fresh scratch is correct.
func TestInjectedShardPanic(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			panic("watchdog: TestInjectedShardPanic wedged\n" + string(buf[:n]))
		}
	}()

	rng := rand.New(rand.NewSource(59))
	n := 500
	a := randMatrix(rng, n, n, 0.02)
	u := randVec(rng, n, 0.3)
	s := MinPlusFloat64()
	want := oracleMxV(a, u, nil, false, false, s)

	base := par.ParkedWorkers()
	ws := AcquireWorkspace(n, n)
	desc := &Descriptor{Shards: 8, Workspace: ws}
	w := NewVector[float64](n)

	disarm := faultinject.Arm(faultinject.SiteShardKernel, 2, func() {
		panic("injected shard fault")
	})
	defer disarm()
	_, err := Into(w).With(desc).MxV(s, a, u)
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("err = %v, want ErrKernelPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "injected shard fault" {
		t.Fatalf("wrong panic payload: %v", err)
	}
	disarm()

	if !ws.tainted {
		t.Fatal("pinned workspace not tainted by the shard panic")
	}
	if desc.workspace() != nil {
		t.Fatal("tainted workspace still handed out by the descriptor")
	}
	ws.Release() // tainted: dropped, not pooled

	if got := par.ParkedWorkers(); got != base {
		t.Fatalf("ParkedWorkers = %d after injected shard panic, was %d", got, base)
	}

	// The same descriptor (its workspace now absent) must produce a correct
	// sharded result on pooled scratch.
	w2 := NewVector[float64](n)
	if _, err := Into(w2).With(desc).MxV(s, a, u); err != nil {
		t.Fatalf("sharded MxV after fault: %v", err)
	}
	vecEquals(t, "post-fault sharded", w2, want)
}
