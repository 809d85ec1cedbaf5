package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/calibrate"
	"pushpull/internal/core"
	"pushpull/internal/par"
	"pushpull/internal/serve"
)

// The per-layer pass times calls into each layer's public functions from
// outside, in this process, against the same graphs, seed and cost-model
// profile as the child. Nothing inside the program is instrumented; what a
// layer costs is what its callers pay.

const (
	layerSources = 12 // roots per (graph, algorithm) pair in the per-layer pass
	layerPasses  = 2  // timed passes over those roots
)

// layers accumulates the per-layer metrics.
type layers struct {
	p     *prepared
	model *core.CostModel
	out   map[string]metric
	spans *spanLog
	// traced is the (graph, algorithm) pair whose calls are recorded as
	// spans: the workload's primary stream.
	traced *stream
	wlName string

	recon reconciliation
}

func (l *layers) set(name string, value float64, unit string) {
	l.out[name] = metric{value, unit}
}

func (l *layers) qid(srcIdx int) string { return fmt.Sprintf("%s#%d", l.wlName, srcIdx) }

func (l *layers) isTraced(graph, algo string) bool {
	return l.traced.graph == graph && l.traced.algo == algo
}

// roots returns the first layerSources roots of a graph's pool.
func (l *layers) roots(graph string) []int {
	pool := l.p.pools[graph]
	if len(pool) > layerSources {
		pool = pool[:layerSources]
	}
	return pool
}

// allocsOver runs fn n times and returns mean allocations and mean
// kilobytes allocated per call.
func allocsOver(n int, fn func()) (allocs, kb float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// timeEach runs fn n times and returns each call's duration in units of
// per.
func timeEach(n int, per time.Duration, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / float64(per)
	}
	return out
}

func loadModel() (*core.CostModel, error) {
	prof, err := calibrate.Load(tunePath)
	if err != nil {
		return nil, fmt.Errorf("cost-model profile: %w", err)
	}
	return &prof.Model, nil
}

// measureGenerate reports the graph builds that prepare timed, and times
// mid's weighted copy: together, what start-up spends in generate.
func (l *layers) measureGenerate() (*graphblas.Matrix[float64], error) {
	for name, s := range l.p.buildS {
		l.set("generate.build_s."+name, s, "s")
	}
	t0 := time.Now()
	wm, err := generate.WeightedCopy(l.p.mats["mid"], 1, 10, 99)
	if err != nil {
		return nil, err
	}
	l.set("generate.weighted_copy_s.mid", time.Since(t0).Seconds(), "s")
	return wm, nil
}

// measurePar times a two-chunk fork-join, the fixed cost road-bfs pays on
// every kernel call: back to back (the helper has not parked yet), after
// 1 ms of idleness (the helper is parked), and its allocations — the job
// record comes from a sync.Pool whose Get can miss.
func (l *layers) measurePar() {
	body := func(lo, hi int) {}
	forkJoin := func() { par.For(2, 1, body) }
	for i := 0; i < 1000; i++ {
		forkJoin()
	}
	const batch = 1000
	var hot []float64
	for b := 0; b < 20; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			forkJoin()
		}
		hot = append(hot, float64(time.Since(t0))/float64(time.Microsecond)/batch)
	}
	l.set("par.fork_join_hot_us", median(hot), "us")

	parked := make([]float64, 200)
	for i := range parked {
		time.Sleep(time.Millisecond)
		t0 := time.Now()
		forkJoin()
		parked[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	l.set("par.fork_join_parked_us", median(parked), "us")

	allocs, _ := allocsOver(10000, forkJoin)
	l.set("par.allocs_per_dispatch", allocs, "count")
}

// level is one BFS level of kron rebuilt from oracle depths: the frontier
// at depth d, the visited set up to d, and the rows still unvisited.
type level struct {
	frontier  []uint32 // ascending
	visited   []uint64 // bitset of depth <= d
	nvisited  int
	unvisited []uint32 // ascending
	next      int      // vertices at depth d+1: what one step must discover
	edges     int      // out-edges of the frontier: push's work
}

func levelAt(a *adjacency, depths []int32, d int32) level {
	lv := level{visited: make([]uint64, core.BitsetWords(a.n))}
	for v, dv := range depths {
		switch {
		case dv == d:
			lv.frontier = append(lv.frontier, uint32(v))
			lv.edges += len(a.row(v))
		case dv == d+1:
			lv.next++
		}
		if dv >= 0 && dv <= d {
			core.BitsetSet(lv.visited, v)
			lv.nvisited++
		} else {
			lv.unvisited = append(lv.unvisited, uint32(v))
		}
	}
	return lv
}

// orAnd is the Boolean semiring as the kernels take it.
func orAnd() core.SR[bool] {
	yes := true
	return core.SR[bool]{
		Add:      func(a, b bool) bool { return a || b },
		Mul:      func(a, b bool) bool { return a && b },
		Terminal: &yes,
		One:      true,
	}
}

// measureCore times the masked push and pull kernels directly, on kron's
// level 1 (sparse: push's home ground) and its widest level (peak: where
// the planner pulls), exactly as BFS calls them: structure-only, early
// exit, ¬visited mask, pull reading the visited bitset as its operand.
func (l *layers) measureCore(levels map[string]level) error {
	a := l.p.mats["kron"]
	n := a.NRows()
	rowG, colG := a.CSC(), a.CSR() // BFS multiplies by the transpose
	sr := orAnd()
	opts := core.Opts{StructureOnly: true, EarlyExit: true, Ws: core.NewWorkspace(n, n)}
	ones := make([]bool, n)
	for i := range ones {
		ones[i] = true
	}
	wVal, wPresent := make([]bool, n), make([]bool, n)
	visitedBools := make([]bool, n)

	for _, name := range []string{"sparse", "peak"} {
		lv := levels[name]
		reps := 400
		if name == "peak" {
			reps = 30
		}
		mask := core.MaskView{Words: lv.visited, Scmp: true}
		found := 0
		push := func() {
			ind, _ := core.ColMaskedMxv(colG, core.SparseVec(n, lv.frontier, ones[:len(lv.frontier)]), mask, sr, opts)
			found = len(ind)
		}
		push()
		if found != lv.next {
			return fmt.Errorf("core push at the %s level found %d vertices, oracle %d", name, found, lv.next)
		}
		l.set("core.push_ns_per_edge."+name, median(timeEach(reps, time.Nanosecond, push))/float64(lv.edges), "ns")

		// The allow-list form never writes rows outside the list, so the
		// presence array must go in cleared; restoring it is not timed.
		pullMask := mask
		pullMask.List = lv.unvisited
		u := core.BitsetVec(ones, lv.visited, lv.nvisited)
		reset := func() {
			for _, i := range lv.unvisited {
				wPresent[i] = false
			}
		}
		pullNS := make([]float64, reps)
		for i := range pullNS {
			t0 := time.Now()
			found = core.RowMaskedMxv(wVal, wPresent, rowG, u, pullMask, sr, opts)
			pullNS[i] = float64(time.Since(t0))
			reset()
		}
		if found != lv.next {
			return fmt.Errorf("core pull at the %s level found %d vertices, oracle %d", name, found, lv.next)
		}
		// The counted twin gives the edges actually probed: early exit
		// stops a row at its first visited neighbour.
		for i := range visitedBools {
			visitedBools[i] = core.BitsetGet(lv.visited, i)
		}
		var c core.Counter
		core.RowMaskedMxvCounted(wVal, wPresent, rowG, ones, visitedBools, pullMask, sr, opts, &c)
		reset()
		l.set("core.pull_ns_per_edge."+name, median(pullNS)/float64(c.MatrixAccesses), "ns")
		if name == "peak" {
			l.set("core.pull_edges_probed.peak", float64(c.MatrixAccesses), "count")
			allocs, _ := allocsOver(reps, push)
			l.set("core.push_allocs_per_op", allocs, "count")
			allocs, _ = allocsOver(reps, func() {
				core.RowMaskedMxv(wVal, wPresent, rowG, u, pullMask, sr, opts)
				reset()
			})
			l.set("core.pull_allocs_per_op", allocs, "count")
		}
	}
	return nil
}

// boolVector builds a graphblas vector holding true at the given indices.
func boolVector(n int, ind []uint32) (*graphblas.Vector[bool], error) {
	v := graphblas.NewVector[bool](n)
	vals := make([]bool, len(ind))
	for i := range vals {
		vals[i] = true
	}
	return v, v.Build(ind, vals, nil)
}

// visitedVector builds the word-packed visited set BFS keeps.
func visitedVector(n int, lv level) (*graphblas.Vector[bool], error) {
	v := graphblas.NewVector[bool](n)
	v.ToBitset()
	var err error
	core.BitsetForEach(lv.visited, func(i int) {
		if e := v.SetElement(i, true); e != nil && err == nil {
			err = e
		}
	})
	return v, err
}

// measureMxV times the same step as measureCore through graphblas.MxV
// with the direction forced (the difference to the core figures is the
// wrapper), and the planner's decision on its own.
func (l *layers) measureMxV(levels map[string]level) error {
	peak, sparse := levels["peak"], levels["sparse"]
	a := l.p.mats["kron"]
	n := a.NRows()
	sr := graphblas.OrAndBool()
	f, err := boolVector(n, peak.frontier)
	if err != nil {
		return err
	}
	visited, err := visitedVector(n, peak)
	if err != nil {
		return err
	}
	out := graphblas.NewVector[bool](n)
	ws := graphblas.NewWorkspace(n, n)
	step := func(dir graphblas.Direction) (func(), *error) {
		desc := &graphblas.Descriptor{
			Transpose: true, StructureOnly: true, StructuralComplement: true,
			Workspace: ws, Direction: dir,
		}
		input := f
		if dir == graphblas.ForcePull {
			// As BFS does: the allow-list, and the visited set as operand.
			desc.MaskAllowList = peak.unvisited
			input = visited
		}
		var stepErr error
		return func() {
			if _, err := graphblas.Into(out).Mask(visited).With(desc).MxV(sr, a, input); err != nil {
				stepErr = err
			}
		}, &stepErr
	}
	for _, d := range []struct {
		name string
		dir  graphblas.Direction
	}{{"push", graphblas.ForcePush}, {"pull", graphblas.ForcePull}} {
		fn, stepErr := step(d.dir)
		fn()
		if *stepErr != nil {
			return *stepErr
		}
		if out.NVals() != peak.next {
			return fmt.Errorf("graphblas %s at the peak level found %d vertices, oracle %d", d.name, out.NVals(), peak.next)
		}
		l.set("graphblas.mxv_"+d.name+"_us.peak", median(timeEach(30, time.Microsecond, fn)), "us")
	}

	planner := graphblas.NewPlanner(a, true, 0).WithModel(l.model)
	planner.SetPullProbeKind(core.KindBitset)
	var plan core.Plan
	// Priced on the sparse level: there the frontier is an index list and
	// the planner sums its exact out-degrees; wide frontiers are bitmaps,
	// which it prices in constant time.
	planNS := timeEach(2000, time.Nanosecond, func() {
		plan = planner.Plan(sparse.frontier, len(sparse.frontier), n-sparse.nvisited)
	})
	if plan.PredictedNs <= 0 {
		return fmt.Errorf("graphblas planner priced nothing with %s", tunePath)
	}
	l.set("graphblas.plan_ns", median(planNS), "ns")

	return nil
}

// measureFixedCost times a masked, auto-direction MxV that has almost
// nothing to do — one vertex in the frontier, on road — and its
// allocations: the per-level cost road-bfs pays some 390 times a query.
func (l *layers) measureFixedCost() error {
	sr := graphblas.OrAndBool()
	road := l.p.mats["road"]
	rn := road.NRows()
	src := l.p.pools["road"][0]
	rf, err := boolVector(rn, []uint32{uint32(src)})
	if err != nil {
		return err
	}
	rvisited := graphblas.NewVector[bool](rn)
	rvisited.ToBitset()
	if err := rvisited.SetElement(src, true); err != nil {
		return err
	}
	rout := graphblas.NewVector[bool](rn)
	rdesc := &graphblas.Descriptor{
		Transpose: true, StructureOnly: true, StructuralComplement: true,
		Workspace: graphblas.NewWorkspace(rn, rn), CostModel: l.model,
	}
	var fixedErr error
	fixed := func() {
		if _, err := graphblas.Into(rout).Mask(rvisited).With(rdesc).MxV(sr, road, rf); err != nil {
			fixedErr = err
		}
	}
	for i := 0; i < 100; i++ {
		fixed()
	}
	if fixedErr != nil {
		return fixedErr
	}
	l.set("graphblas.mxv_fixed_us", median(timeEach(2000, time.Microsecond, fixed)), "us")
	allocs, _ := allocsOver(2000, fixed)
	l.set("graphblas.mxv_allocs_per_op", allocs, "count")

	return nil
}

// measureValued times the two valued kernels mix-valued depends on, on
// mid's weighted copy: min-plus push from the widest level of a BFS
// (SSSP's relaxation), plus-times pull over a dense vector (PageRank's
// iteration).
func (l *layers) measureValued(wm *graphblas.Matrix[float64]) error {
	mid := adjacencyOf(l.p.mats["mid"])
	depths, _ := bfsDepths(mid, l.p.pools["mid"][0])
	mlv := levelAt(mid, depths, widestLevel(depths))
	active := graphblas.NewVector[float64](mid.n)
	dist := make([]float64, len(mlv.frontier))
	for i := range dist {
		dist[i] = float64(i%7) + 1
	}
	if err := active.Build(mlv.frontier, dist, nil); err != nil {
		return err
	}
	vout := graphblas.NewVector[float64](mid.n)
	vws := graphblas.NewWorkspace(mid.n, mid.n)
	var valuedErr error
	pushDesc := &graphblas.Descriptor{Transpose: true, Workspace: vws, Direction: graphblas.ForcePush}
	valuedPush := func() {
		if _, err := graphblas.Into(vout).With(pushDesc).MxV(graphblas.MinPlusFloat64(), wm, active); err != nil {
			valuedErr = err
		}
	}
	dense := graphblas.NewVector[float64](mid.n)
	dense.Fill(1 / float64(mid.n))
	pullDesc := &graphblas.Descriptor{Transpose: true, Workspace: vws, Direction: graphblas.ForcePull}
	valuedPull := func() {
		if _, err := graphblas.Into(vout).With(pullDesc).MxV(graphblas.PlusTimesFloat64(), wm, dense); err != nil {
			valuedErr = err
		}
	}
	valuedPush()
	valuedPull()
	if valuedErr != nil {
		return valuedErr
	}
	l.set("graphblas.valued_push_ns_per_edge.mid", median(timeEach(50, time.Nanosecond, valuedPush))/float64(mlv.edges), "ns")
	l.set("graphblas.valued_pull_ns_per_edge.mid", median(timeEach(50, time.Nanosecond, valuedPull))/float64(wm.NVals()), "ns")
	return nil
}

// widestLevel is the depth with the most vertices.
func widestLevel(depths []int32) int32 {
	var count []int
	for _, d := range depths {
		if d >= 0 {
			for int(d) >= len(count) {
				count = append(count, 0)
			}
			count[d]++
		}
	}
	best := 0
	for d, c := range count {
		if c > count[best] {
			best = d
		}
	}
	return int32(best)
}

// bfsRun is one traced in-process BFS or SSSP.
type bfsRun struct {
	wallMS, kernelMS       float64
	levels, pullLevels     int
	predictedNS, pricedNS  float64 // over levels the model priced
	edges                  int64
	start                  time.Time
	levelEnds              []time.Time
	levelDur, levelKernels []time.Duration
}

func (r *bfsRun) trace(s algorithms.IterStats) {
	r.levels++
	if s.Direction == graphblas.PullDirection {
		r.pullLevels++
	}
	r.kernelMS += s.MeasuredNs / 1e6
	if s.PredictedNs > 0 {
		r.predictedNS += s.PredictedNs
		r.pricedNS += s.MeasuredNs
	}
	r.levelEnds = append(r.levelEnds, time.Now())
	r.levelDur = append(r.levelDur, s.Duration)
	r.levelKernels = append(r.levelKernels, time.Duration(s.MeasuredNs))
}

// record writes the run as spans: the call, each level (its interval
// reconstructed from the duration IterStats reports, ending when the
// trace callback ran), and the level's matvec.
func (r *bfsRun) record(log *spanLog, name, qid string) {
	end := r.start.Add(time.Duration(r.wallMS * 1e6))
	root := log.add(name, qid, 0, r.start, end, false)
	for i, levelEnd := range r.levelEnds {
		levelStart := levelEnd.Add(-r.levelDur[i])
		lvl := log.add(name+".level", qid, root, levelStart, levelEnd, true)
		log.add("graphblas.mxv", qid, lvl, levelStart, levelStart.Add(r.levelKernels[i]), true)
	}
}

// paired is one (graph, algorithm) pair measured through every layer at
// once. The host drifts by tens of percent over seconds, so figures that
// are compared or subtracted — the child's round trip, Server.Do in
// process, the algorithm called directly, the same without its trace
// callback — are taken back to back for each root, and differences are
// medians of per-root differences, never differences of medians taken
// seconds apart.
type paired struct {
	name   string // metric suffix
	st     *stream
	direct func(src int, trace func(algorithms.IterStats)) (edges int64, err error)
}

// pairedSamples holds one value per (pass, root), index-aligned.
type pairedSamples struct {
	runs               []bfsRun
	doMS, bareMS       []float64
	rtMS, httpUS       []float64 // traced pair only
	attempted, failed  int
	overheadUS, selfMS []float64 // do − algorithm; algorithm − kernel
}

// measurePair runs one warming pass and layerPasses timed passes over the
// pair's roots. For the workload's primary pair each root is also sent to
// the child first, and every call is recorded as a span.
func (l *layers) measurePair(pr paired, srv *serve.Server, wire func(srcIdx, seq int) (sample, error)) (*pairedSamples, error) {
	roots := l.roots(pr.st.graph)
	traced := l.isTraced(pr.st.graph, pr.st.algo)
	want := l.p.verifier.answers[pr.st.key()]
	ps := &pairedSamples{}
	for pass := -1; pass < layerPasses; pass++ { // pass -1 warms workspaces and caches
		for i, src := range roots {
			keep := pass >= 0
			if traced {
				s, err := wire(i, (pass+1)*len(roots)+i)
				ps.attempted++
				if err != nil {
					ps.failed++
					return ps, err
				}
				if keep {
					ps.rtMS = append(ps.rtMS, s.latencyMS())
					ps.httpUS = append(ps.httpUS, (s.latencyMS()-s.serverMS)*1e3)
					if pass == 0 {
						recordRoundTrip(l.spans, l.wlName, &s, l.spans.t0)
					}
				}
			}

			start := time.Now()
			res, err := srv.Do(context.Background(), serve.Request{Graph: pr.st.graph, Algo: pr.st.algo, Source: src, Full: pr.st.full})
			do := time.Since(start)
			ps.attempted++
			if err == nil && want != nil {
				// The in-process answer is held to the same oracle as the
				// served one.
				if w := want[i]; res.Payload.Reached != w.reached || (w.exact && res.Payload.Checksum != w.checksum) {
					err = fmt.Errorf("in-process %s source #%d: reached %d checksum %d, oracle %d %d",
						pr.st.key(), i, res.Payload.Reached, res.Payload.Checksum, w.reached, w.checksum)
				}
			}
			if err != nil {
				ps.failed++
				return ps, err
			}

			r := bfsRun{start: time.Now()}
			edges, err := pr.direct(src, r.trace)
			r.wallMS = float64(time.Since(r.start)) / 1e6
			if err != nil {
				return ps, err
			}
			r.edges = edges
			var bare time.Duration
			if traced {
				t0 := time.Now()
				if _, err := pr.direct(src, nil); err != nil {
					return ps, err
				}
				bare = time.Since(t0)
			}
			if !keep {
				continue
			}
			ps.runs = append(ps.runs, r)
			ps.doMS = append(ps.doMS, float64(do)/1e6)
			ps.overheadUS = append(ps.overheadUS, (float64(do)/1e6-r.wallMS)*1e3)
			ps.selfMS = append(ps.selfMS, r.wallMS-r.kernelMS)
			if traced {
				ps.bareMS = append(ps.bareMS, float64(bare)/1e6)
				if pass == 0 {
					l.spans.add("serve.do", l.qid(i), 0, start, start.Add(do), false)
					r.record(l.spans, "algorithms."+pr.st.algo, l.qid(i))
				}
			}
		}
	}
	return ps, nil
}

func (ps *pairedSamples) wall() []float64 {
	out := make([]float64, len(ps.runs))
	for i, r := range ps.runs {
		out[i] = r.wallMS
	}
	return out
}

func (ps *pairedSamples) kernel() []float64 {
	out := make([]float64, len(ps.runs))
	for i, r := range ps.runs {
		out[i] = r.kernelMS
	}
	return out
}

// measureStack stands up an in-process serve.Server over the same graphs
// (already built, so NewFromSources is validation and pool start-up only)
// and measures the four traversal pairs through serve, algorithms and the
// kernels beneath. do − algorithm, per root, is what admission, the
// scheduler, the context and budget, the payload and its checksum cost.
func (l *layers) measureStack(wm *graphblas.Matrix[float64], wire func(srcIdx, seq int) (sample, error)) (attempted, failed int, err error) {
	var sources []serve.GraphSource
	for _, g := range servedGraphs {
		sources = append(sources, serve.StaticSource(serve.NewGraph(g.name, l.p.mats[g.name])))
	}
	t0 := time.Now()
	srv, err := serve.NewFromSources(serve.Config{Workers: childProcs, QueueDepth: childQueue, Model: l.model, MinBudget: stallGrace}, sources)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	l.set("serve.install_s", time.Since(t0).Seconds(), "s")

	bfs := func(graph string) func(int, func(algorithms.IterStats)) (int64, error) {
		a := l.p.mats[graph]
		ws := graphblas.NewWorkspace(a.NRows(), a.NCols())
		return func(src int, trace func(algorithms.IterStats)) (int64, error) {
			res, err := algorithms.BFS(a, src, algorithms.BFSOptions{Model: l.model, Workspace: ws, Trace: trace})
			return res.EdgesTraversed, err
		}
	}
	midWS := graphblas.NewWorkspace(wm.NRows(), wm.NCols())
	pairs := []paired{
		{"kron", kronBFS, bfs("kron")},
		{"road", roadBFS, bfs("road")},
		{"tiny", tinyFull, bfs("tiny")},
		{"mid-sssp", midSSSP, func(src int, trace func(algorithms.IterStats)) (int64, error) {
			_, err := algorithms.SSSP(wm, src, algorithms.SSSPOptions{Model: l.model, Workspace: midWS, Trace: trace})
			return 0, err
		}},
	}
	for _, pr := range pairs {
		ps, err := l.measurePair(pr, srv, wire)
		attempted, failed = attempted+ps.attempted, failed+ps.failed
		if err != nil {
			return attempted, failed, err
		}
		l.set("serve.do_ms."+pr.name, median(ps.doMS), "ms")
		if pr.st.algo == "sssp" {
			l.set("algorithms.sssp_ms.mid", median(ps.wall()), "ms")
		} else {
			l.set("algorithms.bfs_ms."+pr.name, median(ps.wall()), "ms")
			l.set("serve.overhead_us."+pr.name, median(ps.overheadUS), "us")
		}
		if pr.name == "kron" || pr.name == "road" {
			var frac, levels []float64
			for _, r := range ps.runs {
				// Σ MeasuredNs ÷ wall: the share of a traversal spent in
				// kernels; the rest is what the GraphBLAS layer and the
				// loop around it cost.
				frac = append(frac, r.kernelMS/r.wallMS)
				levels = append(levels, float64(r.levels))
			}
			l.set("algorithms.bfs_kernel_frac."+pr.name, median(frac), "ratio")
			l.set("algorithms.bfs_levels."+pr.name, mean(levels), "count")
		}
		if pr.name == "kron" {
			var predicted, priced float64
			var mteps, pulls []float64
			for _, r := range ps.runs {
				predicted += r.predictedNS
				priced += r.pricedNS
				mteps = append(mteps, float64(r.edges)/r.wallMS/1e3)
				pulls = append(pulls, float64(r.pullLevels))
			}
			l.set("algorithms.bfs_pull_levels.kron", mean(pulls), "count")
			l.set("algorithms.bfs_predict_ratio.kron", priced/predicted, "ratio")
			l.set("algorithms.bfs_mteps.kron", median(mteps), "MTEPS")
		}
		if l.isTraced(pr.st.graph, pr.st.algo) {
			// Reconciliation: self times, layer by layer, against the
			// one-client round trip taken beside them. Only the HTTP term
			// and the round trip come from the child; the gap says how
			// well the in-process figures stand for it. Per root the four
			// self times add up to http + Do, so the gap is taken per
			// root too, and its median reported.
			var gaps []float64
			for i, rt := range ps.rtMS {
				gaps = append(gaps, (ps.httpUS[i]/1e3+ps.doMS[i])/rt-1)
			}
			l.recon = reconciliation{
				httpMS: median(ps.httpUS) / 1e3, serveMS: median(ps.overheadUS) / 1e3,
				algoMS: median(ps.selfMS), kernelMS: median(ps.kernel()), rtMS: median(ps.rtMS),
				gap: median(gaps), roundTrips: len(ps.rtMS),
			}
			l.set("ppserve.http_overhead_us", median(ps.httpUS), "us")
			l.set("ppload.reconcile_gap_frac", l.recon.gap, "ratio")
			var ratio []float64
			for i, r := range ps.runs {
				ratio = append(ratio, r.wallMS/ps.bareMS[i]-1)
			}
			// What the IterStats callback costs the algorithm; the HTTP
			// side has no hook at all, its spans are built from samples
			// the untraced pass keeps too.
			l.set("ppload.trace_overhead_frac", median(ratio), "ratio")
		}
	}

	// Allocation figures are means over many operations.
	roots := l.roots("kron")
	kron := bfs("kron")
	i := 0
	allocs, kb := allocsOver(2*len(roots), func() {
		_, _ = kron(roots[i%len(roots)], nil) // these roots ran clean above
		i++
	})
	l.set("algorithms.bfs_allocs_per_run.kron", allocs, "count")
	l.set("algorithms.bfs_alloc_kb_per_run.kron", kb, "KB")
	for _, d := range []struct {
		name string
		st   *stream
		n    int
	}{{"tiny", tinyFull, 1000}, {"kron", kronBFS, 2 * layerSources}} {
		pool := l.roots(d.st.graph)
		var doErr error
		i := 0
		allocs, kb := allocsOver(d.n, func() {
			_, err := srv.Do(context.Background(), serve.Request{Graph: d.st.graph, Algo: d.st.algo, Source: pool[i%len(pool)], Full: d.st.full})
			if err != nil && doErr == nil {
				doErr = err
			}
			i++
		})
		attempted += d.n
		if doErr != nil {
			return attempted, failed + 1, doErr
		}
		l.set("serve.allocs_per_query."+d.name, allocs, "count")
		l.set("serve.alloc_kb_per_query."+d.name, kb, "KB")
	}
	return attempted, failed, nil
}

// reconciliation holds the one-client self times of the primary pair.
type reconciliation struct {
	httpMS, serveMS, algoMS, kernelMS, rtMS float64 // medians over roots
	gap                                     float64 // median of the per-root gaps
	roundTrips                              int
}

// measureMid times the three batch algorithms of mix-valued on mid.
func (l *layers) measureMid() error {
	a := l.p.mats["mid"]
	ws := graphblas.NewWorkspace(a.NRows(), a.NCols())
	roots := l.roots("mid")
	var runErr error
	note := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	i := 0
	next := func() int { i++; return roots[i%len(roots)] }
	timed := func(name string, n int, fn func()) {
		fn()
		l.set("algorithms."+name+"_ms.mid", median(timeEach(n, time.Millisecond, fn)), "ms")
	}
	timed("pagerank", 6, func() {
		_, err := algorithms.PageRank(a, algorithms.PageRankOptions{Model: l.model, Workspace: ws})
		note(err)
	})
	timed("cc", 12, func() {
		_, err := algorithms.ConnectedComponentsRun(a, algorithms.CCOptions{Workspace: ws})
		note(err)
	})
	timed("parentbfs", 2*len(roots), func() {
		_, err := algorithms.ParentBFSRun(a, next(), algorithms.ParentBFSOptions{Model: l.model, Workspace: ws})
		note(err)
	})
	return runErr
}
