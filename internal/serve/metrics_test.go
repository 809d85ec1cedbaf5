package serve

import (
	"runtime"
	"testing"
)

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
