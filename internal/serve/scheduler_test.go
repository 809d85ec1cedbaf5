package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// mkTask builds the minimal task the scheduler cares about: class,
// deadline, and predicted cost.
func mkTask(class int, deadline time.Time, predictedNs float64) *task {
	return &task{class: class, deadline: deadline, predictedNs: predictedNs}
}

// TestSchedulerEDFWithinClass is the EDF ordering property: however the
// deadlines arrive, each class drains in nondecreasing deadline order,
// ties broken by admission order.
func TestSchedulerEDFWithinClass(t *testing.T) {
	s := newScheduler(256, time.Hour)
	base := time.Now()
	// A deterministic scramble: deadlines visit offsets in multiplicative
	// order (37 is coprime to 101, so all residues appear).
	var pushed []*task
	for i := 0; i < 101; i++ {
		off := (i * 37) % 101
		class := classInteractive
		if i%3 == 0 {
			class = classBatch
		}
		tk := mkTask(class, base.Add(time.Duration(off)*time.Millisecond), 0)
		if err := s.push(tk); err != nil {
			t.Fatal(err)
		}
		pushed = append(pushed, tk)
	}
	// Duplicate-deadline pair: the earlier admission must drain first.
	dupA := mkTask(classInteractive, base, 0)
	dupB := mkTask(classInteractive, base, 0)
	if err := s.push(dupA); err != nil {
		t.Fatal(err)
	}
	if err := s.push(dupB); err != nil {
		t.Fatal(err)
	}
	s.close()

	var last [numClasses]*task
	var count int
	var sawDupA bool
	for {
		tk, ok := s.pop(make(chan struct{}, 1))
		if !ok {
			break
		}
		count++
		if prev := last[tk.class]; prev != nil {
			if tk.deadline.Before(prev.deadline) {
				t.Fatalf("class %d: deadline %v claimed after %v", tk.class, tk.deadline, prev.deadline)
			}
			if tk.deadline.Equal(prev.deadline) && tk.seq < prev.seq {
				t.Fatalf("class %d: tie broken against admission order (seq %d after %d)", tk.class, tk.seq, prev.seq)
			}
		}
		last[tk.class] = tk
		if tk == dupA {
			sawDupA = true
		}
		if tk == dupB && !sawDupA {
			t.Fatal("duplicate deadline: later admission claimed first")
		}
	}
	if want := len(pushed) + 2; count != want {
		t.Fatalf("drained %d tasks, pushed %d", count, want)
	}
}

// TestSchedulerClassPriority: with an effectively infinite aging bound,
// every interactive task is claimed before any batch task.
func TestSchedulerClassPriority(t *testing.T) {
	s := newScheduler(64, time.Hour)
	base := time.Now()
	// Batch tasks carry the earliest deadlines — class priority must still
	// trump EDF across classes.
	for i := 0; i < 10; i++ {
		if err := s.push(mkTask(classBatch, base.Add(time.Duration(i)*time.Millisecond), 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := s.push(mkTask(classInteractive, base.Add(time.Hour+time.Duration(i)*time.Millisecond), 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.close()
	for i := 0; i < 20; i++ {
		tk, ok := s.pop(make(chan struct{}, 1))
		if !ok {
			t.Fatalf("pop %d: drained early", i)
		}
		wantClass := classInteractive
		if i >= 10 {
			wantClass = classBatch
		}
		if tk.class != wantClass {
			t.Fatalf("pop %d: class %d, want %d", i, tk.class, wantClass)
		}
	}
}

// TestSchedulerAgingBound is the anti-starvation property: with a tiny
// aging bound, batch work is claimed even while interactive work keeps
// waiting, and the claim is counted as aged.
func TestSchedulerAgingBound(t *testing.T) {
	s := newScheduler(64, time.Nanosecond)
	base := time.Now()
	if err := s.push(mkTask(classInteractive, base, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.push(mkTask(classBatch, base.Add(time.Hour), 0)); err != nil {
		t.Fatal(err)
	}
	// Well past the 1ns bound since construction: the batch task must jump
	// the waiting interactive one.
	time.Sleep(time.Millisecond)
	s.close()
	tk, ok := s.pop(make(chan struct{}, 1))
	if !ok || tk.class != classBatch {
		t.Fatalf("first claim class %d (ok=%v), want batch via aging", tk.class, ok)
	}
	if _, _, aged := s.classDepths(); aged != 1 {
		t.Fatalf("agedClaims = %d, want 1", aged)
	}
	if tk, ok = s.pop(make(chan struct{}, 1)); !ok || tk.class != classInteractive {
		t.Fatalf("second claim class %d (ok=%v), want interactive", tk.class, ok)
	}
}

// TestSchedulerCapacityAndClose pins the admission failure modes: a full
// queue sheds with ErrQueueFull, a closed one with ErrShuttingDown, and
// close drains already-admitted work before pop reports empty.
func TestSchedulerCapacityAndClose(t *testing.T) {
	s := newScheduler(2, time.Hour)
	base := time.Now()
	for i := 0; i < 2; i++ {
		if err := s.push(mkTask(classInteractive, base, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.push(mkTask(classBatch, base, 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push over capacity: %v, want ErrQueueFull", err)
	}
	s.close()
	if err := s.push(mkTask(classInteractive, base, 0)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("push after close: %v, want ErrShuttingDown", err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.pop(make(chan struct{}, 1)); !ok {
			t.Fatalf("pop %d: drained early", i)
		}
	}
	if _, ok := s.pop(make(chan struct{}, 1)); ok {
		t.Fatal("pop after drain: got a task, want closed")
	}
}

// TestSchedulerDrainNs pins the feasibility backlog semantics: the
// interactive estimate sees only interactive work (it jumps batch), batch
// sees everything, and claims return their prediction to the pool.
func TestSchedulerDrainNs(t *testing.T) {
	s := newScheduler(16, time.Hour)
	base := time.Now()
	if err := s.push(mkTask(classInteractive, base, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.push(mkTask(classInteractive, base.Add(time.Second), 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.push(mkTask(classBatch, base, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := s.drainNs(classInteractive); got != 300 {
		t.Errorf("interactive drain = %v, want 300 (batch backlog excluded)", got)
	}
	if got := s.drainNs(classBatch); got != 1300 {
		t.Errorf("batch drain = %v, want 1300 (everything)", got)
	}
	s.close()
	if tk, ok := s.pop(make(chan struct{}, 1)); !ok || tk.predictedNs != 100 {
		t.Fatalf("first claim predictedNs %v (ok=%v), want the EDF-min interactive task", tk.predictedNs, ok)
	}
	if got := s.drainNs(classInteractive); got != 200 {
		t.Errorf("interactive drain after claim = %v, want 200", got)
	}
}

// TestClassIndex pins the request-field mapping: empty defaults to
// interactive, the two named classes resolve, anything else is invalid.
func TestClassIndex(t *testing.T) {
	cases := []struct {
		in    string
		class int
		ok    bool
	}{
		{"", classInteractive, true},
		{ClassInteractive, classInteractive, true},
		{ClassBatch, classBatch, true},
		{"bulk", 0, false},
		{"Interactive", 0, false},
	}
	for _, c := range cases {
		class, ok := classIndex(c.in)
		if class != c.class || ok != c.ok {
			t.Errorf("classIndex(%q) = (%d, %v), want (%d, %v)", c.in, class, ok, c.class, c.ok)
		}
	}
}

// TestSerialQueriesWarmOneWorker pins the scheduler's most-recently-parked
// wake: queries that arrive one at a time, each after the previous answer,
// all run on one worker, so only that worker pins workspaces and the idle
// one holds no per-graph state.
func TestSerialQueriesWarmOneWorker(t *testing.T) {
	srv, err := New(Config{Workers: 2}, kronGraph(t, 8), NewGraph("path", pathGraph(t, 64).Mat))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 8; i++ {
		// Both workers parked before each push: the last one to finish
		// is on top of the stack.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			srv.sched.mu.Lock()
			parked := len(srv.sched.idle)
			srv.sched.mu.Unlock()
			if parked == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %d: %d of 2 workers parked after 10 s", i, parked)
			}
		}
		graph := []string{"kron", "path"}[i%2]
		if _, err := srv.Do(context.Background(), Request{Graph: graph, Algo: "bfs"}); err != nil {
			t.Fatal(err)
		}
	}
	warm := 0
	for _, w := range srv.workers {
		if len(w.pinned) > 0 {
			warm++
		}
	}
	if warm != 1 {
		t.Errorf("%d workers pin workspaces after 8 serial queries, want 1", warm)
	}
}
