package serve

import (
	"sync"
	"time"
)

// Query classes. Interactive queries are claimed before batch queries;
// batch queries ride an anti-starvation aging bound so a steady
// interactive stream cannot park them forever.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

const (
	classInteractive = iota
	classBatch
	numClasses
)

// classIndex maps the request's class field to its queue index. The empty
// string is interactive — a client that says nothing gets the latency
// tier, matching the pre-class behaviour where every query competed
// equally.
func classIndex(class string) (int, bool) {
	switch class {
	case "", ClassInteractive:
		return classInteractive, true
	case ClassBatch:
		return classBatch, true
	default:
		return 0, false
	}
}

func className(class int) string {
	if class == classBatch {
		return ClassBatch
	}
	return ClassInteractive
}

// scheduler is the admission queue: a mutex-guarded pair of
// earliest-deadline-first heaps, one per class, replacing the FIFO
// channel the pool started with, and the stack of workers parked on it.
// The mutex closes the Do-vs-Close race the channel had (a send racing a
// close panics; push racing close just returns ErrShuttingDown), and the
// heaps give the claim policy:
//
//   - within a class, the earliest deadline is claimed first (EDF), ties
//     broken by admission order;
//   - interactive is claimed before batch, except that batch is
//     guaranteed one claim per agingBound whenever it has work — the
//     anti-starvation bound that keeps a saturating interactive stream
//     from parking batch forever;
//   - after close, pop drains the remaining admitted tasks (each still
//     bounded by its own deadline) before reporting empty.
//
// The scheduler also carries the admission-time backlog estimate: the sum
// of queued tasks' predicted nanoseconds per class, which the
// deadline-feasibility check divides by the worker count to price the
// queue wait a new query would inherit.
type scheduler struct {
	mu     sync.Mutex
	cap    int
	closed bool
	q      [numClasses]taskHeap
	seq    uint64

	// idle stacks the wake channels of the workers parked in pop, the most
	// recently parked on top, and push wakes the top one. Work that arrives
	// one query at a time therefore keeps landing on the same warm worker,
	// and a second worker builds its per-graph workspaces only once queries
	// overlap: a first-in-first-out wake would warm every worker for every
	// graph and algorithm, duplicating that state on the heap for nothing.
	idle []chan struct{}

	// backlogNs sums the predicted run time of the queued tasks per class
	// (tasks without a prediction contribute zero — the estimate is a
	// floor, never an excuse to admit blindly past it).
	backlogNs [numClasses]float64

	// lastBatchClaim is the last time a batch task was claimed while
	// interactive work was also waiting; pop serves batch when
	// now-lastBatchClaim ≥ agingBound, bounding batch starvation to one
	// aging window plus one interactive service time.
	agingBound     time.Duration
	lastBatchClaim time.Time
	agedClaims     uint64
}

func newScheduler(capacity int, agingBound time.Duration) *scheduler {
	return &scheduler{cap: capacity, agingBound: agingBound, lastBatchClaim: time.Now()}
}

// push admits a task or fails fast: ErrShuttingDown after close,
// ErrQueueFull when the shared capacity is reached. Never blocks.
func (s *scheduler) push(t *task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShuttingDown
	}
	if s.q[classInteractive].len()+s.q[classBatch].len() >= s.cap {
		return ErrQueueFull
	}
	t.seq = s.seq
	s.seq++
	s.q[t.class].push(t)
	s.backlogNs[t.class] += t.predictedNs
	if k := len(s.idle) - 1; k >= 0 {
		s.idle[k] <- struct{}{}
		s.idle = s.idle[:k]
	}
	return nil
}

// pop blocks until a task is claimable, returning false only when the
// scheduler is closed and fully drained. wake is the calling worker's own
// channel, buffered for one signal, on which it parks while nothing is
// claimable.
func (s *scheduler) pop(wake chan struct{}) (*task, bool) {
	s.mu.Lock()
	for {
		if t := s.claimLocked(time.Now()); t != nil {
			s.mu.Unlock()
			return t, true
		}
		if s.closed {
			s.mu.Unlock()
			return nil, false
		}
		s.idle = append(s.idle, wake)
		s.mu.Unlock()
		<-wake
		s.mu.Lock()
	}
}

// claimLocked applies the class policy and pops the chosen heap's EDF
// minimum. Expired-in-queue tasks are claimed like any other — the worker
// sheds them on the spot (a dead context never reaches a kernel) — so
// their Do callers still receive an outcome.
func (s *scheduler) claimLocked(now time.Time) *task {
	ni, nb := s.q[classInteractive].len(), s.q[classBatch].len()
	if ni == 0 && nb == 0 {
		return nil
	}
	class := classInteractive
	if nb > 0 {
		if ni == 0 {
			class = classBatch
		} else if now.Sub(s.lastBatchClaim) >= s.agingBound {
			class = classBatch
			s.agedClaims++
		}
	}
	if class == classBatch {
		s.lastBatchClaim = now
	}
	t := s.q[class].pop()
	s.backlogNs[class] -= t.predictedNs
	if s.backlogNs[class] < 0 {
		s.backlogNs[class] = 0
	}
	return t
}

// close stops admission and wakes every waiting worker; already-admitted
// tasks drain through pop.
func (s *scheduler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, wake := range s.idle {
		wake <- struct{}{}
	}
	s.idle = nil
}

// depth is the total queued population (the /metrics queue_depth).
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q[classInteractive].len() + s.q[classBatch].len()
}

// classDepths reports the per-class populations and the aged-claim count.
func (s *scheduler) classDepths() (interactive, batch int, aged uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q[classInteractive].len(), s.q[classBatch].len(), s.agedClaims
}

// drainNs estimates the backlog a newly admitted query of the given class
// would wait behind, in predicted nanoseconds of queued work: interactive
// queries jump batch, so they only inherit the interactive backlog; batch
// queries wait behind everything.
func (s *scheduler) drainNs(class int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if class == classBatch {
		return s.backlogNs[classInteractive] + s.backlogNs[classBatch]
	}
	return s.backlogNs[classInteractive]
}

// taskHeap is a binary min-heap ordered by (deadline, admission seq) — the
// EDF order within one class. Methods are unexported and unlocked; the
// scheduler's mutex covers them.
type taskHeap struct {
	items []*task
}

func (h *taskHeap) len() int { return len(h.items) }

func (h *taskHeap) less(i, j int) bool {
	ti, tj := h.items[i], h.items[j]
	if !ti.deadline.Equal(tj.deadline) {
		return ti.deadline.Before(tj.deadline)
	}
	return ti.seq < tj.seq
}

func (h *taskHeap) push(t *task) {
	h.items = append(h.items, t)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *taskHeap) pop() *task {
	n := len(h.items)
	t := h.items[0]
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	h.siftDown(0)
	return t
}

func (h *taskHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}
