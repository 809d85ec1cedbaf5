package serve

import (
	"runtime"
	"testing"
	"time"
)

// fillBucket plants n completed queries into the algorithm's run-latency
// histogram at bucket b (latency < 2^b µs) without running anything. The
// run histogram — not the queue-wait one — is what retryAfterSeconds
// reads.
func fillBucket(m *Metrics, algo string, b int, n uint64) {
	m.algos[algo].run.buckets[b].Store(n)
}

// TestRetryAfterSeconds pins the 429 backoff derivation: drain time =
// (queueDepth+1) × p50 ÷ workers, with the p50 read off the power-of-two
// histogram and the result clamped to [1s, 60s].
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name    string
		algo    string // queried algo
		bucket  int    // where the synthetic completions land
		count   uint64
		depth   int
		workers int
		want    int
	}{
		// No evidence yet: the constant floor stands in.
		{"unknown algo", "dijkstra", 0, 0, 100, 1, minRetryAfterSeconds},
		{"empty histogram", "bfs", 0, 0, 100, 1, minRetryAfterSeconds},
		// Fast queries (p50 < 2^6 µs): even a deep queue drains in
		// well under a second, so the floor holds.
		{"fast queries floor", "bfs", 6, 50, 1000, 1, minRetryAfterSeconds},
		// p50 ≈ 2^20 µs ≈ 1.05 s; 9 queued + 1 = 10 × 1.05 s ≈ 10.5 s,
		// ceil → 11.
		{"second-long queries", "bfs", 20, 100, 9, 1, 11},
		// Same load spread over 8 workers drains 8× faster: 10.5/8 ≈
		// 1.31 s, ceil → 2.
		{"workers divide drain", "bfs", 20, 100, 9, 8, 2},
		// Pathological tail (p50 ≈ 8.4 s, 100 queued) clamps at the cap
		// instead of telling clients to go away for minutes.
		{"clamped at cap", "bfs", 23, 10, 100, 1, maxRetryAfterSeconds},
		// Empty queue still pays for the query being admitted: one p50.
		{"empty queue one p50", "bfs", 21, 10, 0, 1, 3},
		// Degenerate inputs are sanitized, not divided by.
		{"zero workers", "bfs", 20, 10, 0, 0, 2},
		{"negative depth", "bfs", 20, 10, -5, 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newMetrics([]string{"bfs"})
			if c.count > 0 {
				fillBucket(m, "bfs", c.bucket, c.count)
			}
			if got := m.retryAfterSeconds(c.algo, c.depth, c.workers); got != c.want {
				t.Errorf("retryAfterSeconds(%s, depth=%d, workers=%d) = %d, want %d",
					c.algo, c.depth, c.workers, got, c.want)
			}
		})
	}
}

// TestRetryAfterMedianSelection: with a bimodal histogram the hint follows
// the median bucket, not the mean — a slow tail smaller than half the
// population must not inflate the backoff.
func TestRetryAfterMedianSelection(t *testing.T) {
	m := newMetrics([]string{"bfs"})
	// 60 fast (bucket 5, < 32 µs) vs 40 slow (bucket 22, < 4.2 s):
	// median lands in the fast mode → floor.
	fillBucket(m, "bfs", 5, 60)
	fillBucket(m, "bfs", 22, 40)
	if got := m.retryAfterSeconds("bfs", 50, 1); got != minRetryAfterSeconds {
		t.Errorf("fast-majority: %d, want %d (median must ignore the slow tail)", got, minRetryAfterSeconds)
	}
	// Flip the mix: now the median is the slow mode and the hint scales.
	m2 := newMetrics([]string{"bfs"})
	fillBucket(m2, "bfs", 5, 40)
	fillBucket(m2, "bfs", 22, 60)
	if got := m2.retryAfterSeconds("bfs", 50, 1); got <= minRetryAfterSeconds {
		t.Errorf("slow-majority: %d, want > floor", got)
	}
}

// TestRetryAfterMonotonicInDepth: more queued work never shortens the
// hint (clients backing off must not be told to return sooner as the
// queue grows).
func TestRetryAfterMonotonicInDepth(t *testing.T) {
	m := newMetrics([]string{"bfs"})
	fillBucket(m, "bfs", 19, 25) // p50 ≈ 0.52 s
	prev := 0
	for depth := 0; depth <= 256; depth += 16 {
		got := m.retryAfterSeconds("bfs", depth, 2)
		if got < prev {
			t.Fatalf("depth %d: hint %d < previous %d", depth, got, prev)
		}
		prev = got
	}
	if prev <= minRetryAfterSeconds {
		t.Fatalf("deepest queue still at the floor (%d); histogram too fast for the test", prev)
	}
}

// TestRetryAfterTracksObservedLatency goes through the real observe path:
// recorded durations place the p50, and the server-level accessor clamps
// the same way.
func TestRetryAfterTracksObservedLatency(t *testing.T) {
	m := newMetrics([]string{"bfs"})
	for i := 0; i < 9; i++ {
		m.algos["bfs"].observeRun(0, 900*time.Millisecond, nil)
	}
	// 900 ms lands in the bucket spanning up to 2^20 µs: with 9 queued
	// on 1 worker the drain estimate is ~10 × 1.05 s.
	if got := m.retryAfterSeconds("bfs", 9, 1); got < 10 || got > 11 {
		t.Errorf("observed 900ms p50, depth 9: hint %d, want ~10-11", got)
	}
}

// TestSnapshotCarriesRuntimeHeap: the runtime block is filled from
// runtime/metrics on every scrape and its cumulative counters move with the
// process — the allocation rate between two scrapes is readable from outside.
func TestSnapshotCarriesRuntimeHeap(t *testing.T) {
	m := newMetrics([]string{"bfs"})
	before := m.Snapshot().Runtime
	sink = make([]byte, 1<<20)
	runtime.GC()
	after := m.Snapshot().Runtime
	if after.HeapLiveBytes == 0 || after.HeapGoalBytes < after.HeapLiveBytes {
		t.Errorf("heap live %d B, goal %d B: want 0 < live ≤ goal", after.HeapLiveBytes, after.HeapGoalBytes)
	}
	if after.GCCycles <= before.GCCycles || after.AllocatedBytes < before.AllocatedBytes+1<<20 {
		t.Errorf("after 1 MB allocated and a collection: cycles %d → %d, allocated %d → %d B",
			before.GCCycles, after.GCCycles, before.AllocatedBytes, after.AllocatedBytes)
	}
}

// sink keeps TestSnapshotCarriesRuntimeHeap's allocation on the heap.
var sink []byte
