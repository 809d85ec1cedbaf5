package serve

import (
	"context"
	"math"
	"sort"
	"unsafe"

	"pushpull/algorithms"
	"pushpull/graphblas"
	"pushpull/internal/pool"
)

// runner is one registry entry: how to run a named algorithm on a worker.
// Runners receive the worker so they can pin its per-graph workspace and
// feed its trace records into the shared planner metrics. Nothing per-vertex
// is allocated per query: the algorithm's working vectors are slots of that
// workspace and the result array is borrowed (below); what a query does
// allocate is a few fixed-size records it owns exclusively (the graphblas
// concurrency contract). Runners build their payload from whatever per-vertex state
// the algorithm handed back — on cancellation and budget trips that is
// the documented coherent partial progress, returned alongside the error
// so the pool can ship it as a Partial result.
//
// The result array is borrowed (bufPool) and handed to the algorithm as its
// Out buffer. A runner folds checksum and summary out of it and then either
// moves it into the payload (req.Full, complete or partial: the payload owns
// it from then on, until its caller hands it back with Payload.Release) or
// puts it back. Those are the only puts: a runner that panics, or whose
// algorithm refused its input and returned no result, leaves the array to
// the collector.
type runner struct {
	name string
	// needsSource marks the traversal algorithms that root at a vertex.
	needsSource bool
	run         func(ctx context.Context, g *Graph, req Request, w *worker) (Payload, error)
}

// registry is the fixed algorithm set, keyed by query name. Immutable
// after init, so concurrent lookups need no lock.
var registry = map[string]*runner{
	"bfs":       {name: "bfs", needsSource: true, run: runBFS},
	"parentbfs": {name: "parentbfs", needsSource: true, run: runParentBFS},
	"sssp":      {name: "sssp", needsSource: true, run: runSSSP},
	"pagerank":  {name: "pagerank", run: runPageRank},
	"cc":        {name: "cc", run: runCC},
}

// AlgorithmNames lists the registry's query names, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// plannerTrace adapts an algorithm's per-iteration trace into the shared
// PlannerMetrics, carrying one traversal's flip-detection state. Each
// worker owns one (its queries run one at a time) and resets it at every
// run start, handing the algorithm the method value it bound once.
type plannerTrace struct {
	m       *PlannerMetrics
	started bool
	prev    graphblas.TraversalDirection
}

func (p *plannerTrace) observe(s algorithms.IterStats) {
	flipped := p.started && s.Direction != p.prev
	p.started, p.prev = true, s.Direction
	p.m.observe(s.Direction, s.PredictedNs, s.MeasuredNs, flipped)
}

// bufPool lends result arrays of one element type, pooled per length so a
// buffer only ever serves graphs of its own size. It is a sync.Pool
// underneath on purpose: an idle buffer is the collector's to drop, where a
// buffer pinned to the worker (like its Workspace) would be live heap that
// GOGC doubles — measured, that cost the small-graph workloads 4 MB of peak
// RSS. So a get may miss at any time (under -race, at random) and then
// allocates.
type bufPool[T any] struct{ byLen *pool.Dim[*T] }

// What is pooled is the array's first element, not a slice: a pointer boxes
// into sync.Pool's interface without the allocation a slice header costs, and
// the pool's own key is the length that turns it back into the slice.
func newBufPool[T any]() bufPool[T] {
	return bufPool[T]{pool.NewDim(func(n, _ int) *T { return unsafe.SliceData(make([]T, n)) })}
}

func (p bufPool[T]) get(n int) []T { return unsafe.Slice(p.byLen.Acquire(n, 1), n) }
func (p bufPool[T]) put(b []T)     { p.byLen.Put(len(b), 1, unsafe.SliceData(b)) }

var (
	int32Bufs   = newBufPool[int32]()   // bfs depths
	int64Bufs   = newBufPool[int64]()   // parentbfs parents
	uint32Bufs  = newBufPool[uint32]()  // cc labels
	float64Bufs = newBufPool[float64]() // sssp distances, pagerank ranks
)

// Release hands a full payload's result array back to the result pool for
// a later query to borrow. The caller must be done with the array — have
// written it out, say — and must not touch it again; the payload's array
// fields are cleared. A summary payload carries no array, and releasing it
// does nothing. Only a payload Server.Do returned may be released.
func (p *Payload) Release() {
	switch {
	case p.Depths != nil:
		int32Bufs.put(p.Depths)
	case p.Parents != nil:
		int64Bufs.put(p.Parents)
	case p.Dist != nil:
		float64Bufs.put(p.Dist)
	case p.Ranks != nil:
		float64Bufs.put(p.Ranks)
	case p.Labels != nil:
		uint32Bufs.put(p.Labels)
	}
	p.Depths, p.Parents, p.Dist, p.Ranks, p.Labels = nil, nil, nil, nil, nil
}

func runBFS(ctx context.Context, g *Graph, req Request, w *worker) (Payload, error) {
	buf := int32Bufs.get(g.Mat.NRows())
	res, err := algorithms.BFS(g.Mat, req.Source, algorithms.BFSOptions{
		Model:     w.model,
		Workspace: w.workspace(g.Mat.NRows(), g.Mat.NCols()),
		Out:       buf,
		Context:   ctx,
		Trace:     w.traceRun(),
	})
	if res.Depths == nil {
		return Payload{}, err
	}
	// One pass over the result: the checksum fold (in index order, which is
	// what fixes its bits) and the eccentricity.
	p := Payload{Reached: res.Visited, Iterations: res.Iterations}
	h := uint64(fnvOffset64)
	for _, d := range res.Depths {
		h = fnvFold(h, uint64(d), unsafe.Sizeof(d))
		if d > p.MaxDepth {
			p.MaxDepth = d
		}
	}
	p.Checksum = h
	if req.Full {
		p.Depths = res.Depths
	} else {
		int32Bufs.put(buf)
	}
	return p, err
}

func runParentBFS(ctx context.Context, g *Graph, req Request, w *worker) (Payload, error) {
	buf := int64Bufs.get(g.Mat.NRows())
	parents, err := algorithms.ParentBFSRun(g.Mat, req.Source, algorithms.ParentBFSOptions{
		Model:     w.model,
		Workspace: w.workspace(g.Mat.NRows(), g.Mat.NCols()),
		Out:       buf,
		Context:   ctx,
	})
	if parents == nil {
		return Payload{}, err
	}
	var p Payload
	h := uint64(fnvOffset64)
	for _, par := range parents {
		h = fnvFold(h, uint64(par), unsafe.Sizeof(par))
		if par >= 0 {
			p.Reached++
		}
	}
	p.Checksum = h
	if req.Full {
		p.Parents = parents
	} else {
		int64Bufs.put(buf)
	}
	return p, err
}

func runSSSP(ctx context.Context, g *Graph, req Request, w *worker) (Payload, error) {
	wm, err := g.Weighted()
	if err != nil {
		return Payload{}, err
	}
	buf := float64Bufs.get(wm.NRows())
	dist, err := algorithms.SSSP(wm, req.Source, algorithms.SSSPOptions{
		Model:     w.model,
		Workspace: w.workspace(wm.NRows(), wm.NCols()),
		Out:       buf,
		Context:   ctx,
		Trace:     w.traceRun(),
	})
	if dist == nil {
		return Payload{}, err
	}
	var p Payload
	h := uint64(fnvOffset64)
	for _, d := range dist {
		h = fnvFold(h, math.Float64bits(d), 8)
		if !math.IsInf(d, 1) {
			p.Reached++
		}
	}
	p.Checksum = h
	if req.Full {
		p.Dist = dist
	} else {
		float64Bufs.put(buf)
	}
	return p, err
}

func runPageRank(ctx context.Context, g *Graph, req Request, w *worker) (Payload, error) {
	buf := float64Bufs.get(g.Mat.NRows())
	res, err := algorithms.PageRank(g.Mat, algorithms.PageRankOptions{
		Workspace: w.workspace(g.Mat.NRows(), g.Mat.NCols()),
		Out:       buf,
		Context:   ctx,
	})
	if res.Ranks == nil {
		return Payload{}, err
	}
	p := Payload{Reached: len(res.Ranks), Iterations: res.Iterations, Checksum: checksumFloat64(res.Ranks)}
	if req.Full {
		p.Ranks = res.Ranks
	} else {
		float64Bufs.put(buf)
	}
	return p, err
}

func runCC(ctx context.Context, g *Graph, req Request, w *worker) (Payload, error) {
	buf := uint32Bufs.get(g.Mat.NRows())
	labels, err := algorithms.ConnectedComponentsRun(g.Mat, algorithms.CCOptions{
		Workspace: w.workspace(g.Mat.NRows(), g.Mat.NCols()),
		Out:       buf,
		Context:   ctx,
	})
	if labels == nil {
		return Payload{}, err
	}
	p := Payload{Reached: len(labels)}
	h := uint64(fnvOffset64)
	for i, l := range labels {
		h = fnvFold(h, uint64(l), unsafe.Sizeof(l))
		if int(l) == i {
			p.Components++
		}
	}
	p.Checksum = h
	if req.Full {
		p.Labels = labels
	} else {
		uint32Bufs.put(buf)
	}
	return p, err
}

// FNV-1a-64 parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold folds the low size bytes of v, least significant first, into h:
// the bits hash/fnv's New64a yields when written the element's
// little-endian encoding, without a hash.Hash interface call per element.
// The result checksum every payload carries is this fold over the result's
// elements in index order, starting from fnvOffset64; each runner makes it
// in the one pass that also derives its summary fields.
func fnvFold(h, v uint64, size uintptr) uint64 {
	for ; size > 0; size-- {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h
}

// checksumFloat64 is the payload checksum of a float64 result: the fold
// over the IEEE-754 bit patterns.
func checksumFloat64(xs []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, x := range xs {
		h = fnvFold(h, math.Float64bits(x), 8)
	}
	return h
}
