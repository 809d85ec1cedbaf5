package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForManyWorkersStress hammers the persistent-worker dispatch with a
// worker bound well above the machine's core count, checking every index is
// visited exactly once across many jobs back to back (exercises job-record
// recycling and stale queue entries).
func TestForManyWorkersStress(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	for round := 0; round < 200; round++ {
		n := 1 + (round*37)%5000
		hits := make([]int32, n)
		For(n, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d n=%d: index %d visited %d times", round, n, i, h)
			}
		}
	}
}

// TestForWorkerManyWorkersStress is the span-mode analogue: every span must
// run exactly once with a unique span index even when queue entries go
// stale or are serviced by the dispatcher itself.
func TestForWorkerManyWorkersStress(t *testing.T) {
	prev := SetMaxWorkers(6)
	defer SetMaxWorkers(prev)
	for round := 0; round < 200; round++ {
		n := 1 + (round*53)%4000
		var spanSeen [6]int32
		hits := make([]int32, n)
		used := ForWorker(n, func(w, lo, hi int) {
			atomic.AddInt32(&spanSeen[w], 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for w := 0; w < used; w++ {
			if spanSeen[w] != 1 {
				t.Fatalf("round %d: span %d ran %d times", round, w, spanSeen[w])
			}
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d n=%d: index %d visited %d times", round, n, i, h)
			}
		}
	}
}

// TestConcurrentDispatchers runs many goroutines dispatching For/ForWorker
// loops simultaneously: the shared queue, job pool and reference counts
// must keep each job's chunks isolated.
func TestConcurrentDispatchers(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := 100 + g*97 + round
				var sum atomic.Int64
				For(n, 8, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
				})
				if want := int64(n*(n-1)) / 2; sum.Load() != want {
					t.Errorf("goroutine %d round %d: sum %d want %d", g, round, sum.Load(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNestedDispatch nests a For inside a For body. The dispatcher always
// participates in its own job, so nesting must complete even with every
// parked worker busy.
func TestNestedDispatch(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	var total atomic.Int64
	For(64, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inner := 32 + i
			var s atomic.Int64
			For(inner, 4, func(l, h int) {
				for j := l; j < h; j++ {
					s.Add(1)
				}
			})
			if int(s.Load()) != inner {
				t.Errorf("inner loop at %d covered %d of %d", i, s.Load(), inner)
			}
			total.Add(1)
		}
	})
	if total.Load() != 64 {
		t.Fatalf("outer loop covered %d of 64", total.Load())
	}
}

// TestDispatchRecyclesUnservicedJob is the structural form of the
// zero-alloc dispatch guard: with one P and a worker bound of four, no
// parked worker is scheduled while the dispatcher runs, so every wake-up
// hint goes stale. The dispatcher must still get its own record back after
// each loop, so the records ever allocated are bounded by the goroutines
// that can hold one at once — an exact malloc count over the whole run, not
// AllocsPerRun's rounded-down mean (which hides up to runs-1 allocations).
func TestDispatchRecyclesUnservicedJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	body := func(lo, hi int) {}
	wbody := func(w, lo, hi int) {}
	run := func() {
		For(4*DefaultGrain, 0, body)
		ForWorker(4*DefaultGrain, wbody)
	}
	run() // spawn workers, seed the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	// Zero when no worker ever runs; a worker the scheduler does let in can
	// pin one record each while the dispatcher takes a fresh one.
	if got, limit := after.Mallocs-before.Mallocs, uint64(ParkedWorkers()); got > limit {
		t.Fatalf("%d mallocs over 2000 dispatches, want at most %d (one per parked worker)", got, limit)
	}
}
