// Package graphblas is a GraphBLAS-style sparse linear algebra library
// whose matrix-vector multiply implements the push-pull (direction-
// optimized) technique of Yang, Buluç and Owens, "Implementing Push-Pull
// Efficiently in GraphBLAS" (ICPP 2018).
//
// The key idea: push and pull graph traversals are the same mathematical
// operation, w⟨¬v⟩ = Aᵀ·u over a semiring, differing only in how the
// multiply is scheduled. A sparse input vector favours the column-based
// kernel (push, SpMSpV); a dense input with a sparse output mask favours
// the row-based kernel (pull, masked SpMV). MxV plans the direction from
// an edge-based cost model and the input vector's storage format follows
// the decision, so a BFS written as a plain loop of MxV calls
// direction-optimizes automatically.
//
// # Storage formats and the direction planner
//
// A Vector stores its elements in one of three formats, forming a lattice
// ordered by how much structure is materialized:
//
//	Sparse ⊂ Bitset ⊂ Dense
//
//	Sparse  sorted (index, value) pairs — the push input and the sparse
//	        push output (radix merge pipeline)
//	Bitset  value array + word-packed presence ([]uint64, 64 positions
//	        per word, tail bits zero) — O(1) single-bit probes, NVals by
//	        popcount, zero-copy kernel masks, word-parallel Boolean
//	        pattern algebra; the pull output, the sort-free push output
//	        and the representation for visited sets and reusable masks
//	        (ToBitset / BitsetView)
//	Dense   a Bitset whose words are all ones: every position is stored,
//	        so the presence probe vanishes from pull inner loops
//	        (PageRank-style vectors)
//
// Presence is one bit per position everywhere above the kernels. The pull
// and the sort-free push write one presence byte per output row into the
// workspace; MxV packs those bytes into the output's words in the same
// pass that clears them for the next call.
//
// Conversion rules: Sparse↔Bitset moves follow the planned direction
// (pull requires O(1) probes, so a pulled sparse vector packs into words;
// a pushed bitset sparsifies once it has shrunk below the switch-point
// while shrinking — the hysteresis that keeps a frontier at the crossover
// from flapping). One promotion rule: a Bitset whose pattern fills
// (nvals == n) as an operation writes it becomes Dense. Promotion never
// invents elements — use Fill for the explicit pattern-changing
// densification — and ToBitset turns a Dense vector back into a Bitset in
// O(1). Kernels consume all three formats through format-agnostic views
// (internal/core.VecView), so a mismatch between storage and kernel never
// copies more than workspace scratch.
//
// Masks lower to one kernel layout, packed words: bitset and dense masks
// hand theirs out zero-copy, sparse masks materialize into the workspace's
// pooled word buffer. That is what the paper's headline kernel wants: the
// masked pull scans the ¬visited test 64 rows per word (the structural
// complement flips whole words, and a fully disallowed word skips 64 rows
// on one load), and the planner reads the mask's exact density by
// popcount instead of trusting a possibly stale count — recorded in
// Plan.MaskAllowFrac and BFS IterStats.MaskDensity.
//
// Direction choice is a standalone planner, not a side effect of
// conversion, and it runs inside MxV: every algorithm plans each level
// once, in the call that does the level's work. Under
// Descriptor.Direction == Auto it compares
//
//	push cost ≈ Σ_{i∈frontier} outdeg(i) · log₂ nnz(f)   (read off CSC.Ptr)
//	pull cost ≈ rows · avg-degree · effective-mask density
//
// with hysteresis on the frontier trend (grow to switch into pull, shrink
// to switch back). The log factor is Section 3.1's heap-merge term, the
// paper's own cost model; the push that runs radix-sorts instead
// (Algorithm 3), in ⌈log₂₅₆ M⌉ digit passes — a factor constant in nnz(f).
// The kernels count the work they do (internal/core.Counter, read back
// from the kernel workspace), and ppbench table1 fits Table 1's four
// complexities to those counts. When the plan estimates a push output
// dense enough that the radix sort would dominate, the push kernel
// scatters straight into presence bytes instead (Plan.PushOutBitmap — no
// sort at all). This edge model is the one uncalibrated rule; the paper's
// nnz/n switch-point (§6.3, α = β = 0.01) survives only as the storage
// threshold below which a shrinking pushed frontier settles back to a
// sparse list. Override: ForcePush/ForcePull pin the kernel and leave
// every format as it is. Set Descriptor.Plan to capture the full decision
// record (costs, trend, rule). Operand reuse, the paper's Optimization 4, is an MxV input too:
// OpSpec.PullInput names the vector a pull reads in place of u — BFS's
// word-packed visited set, a superset of the frontier whose extra
// discoveries the ¬visited mask filters out — so the planner prices pull at
// that vector's storage kind and the frontier never converts for a pull:
//
//	Into(f).Mask(visited).PullInput(visited).With(desc).MxV(sr, a, f)
//
// An unmasked relaxation reuses its dense state: CC pulls from its labels,
// since every vertex whose label fell last round is active and a non-active
// neighbour's candidate fails the strict < of the Select fold that follows:
//
//	Into(cand).PullInput(labels).With(desc).MxV(sr, ids, active)
//
// When to force a format: keep a vector Bitset (ToBitset) when it is
// reused as a mask or pull input every iteration, so it is never repacked;
// Fill a value-complete vector so pull consumes it probe-free; leave
// frontiers alone — the planner settles them.
//
// # The calibrated cost model and feedback corrector
//
// Without a profile the estimates above weigh every term equally — one RAM
// access per gathered edge, scanned row or scattered output. Real machines
// disagree by integer factors, so the crossover the unit model finds is
// not the crossover the hardware has: on kron its pull carries no
// early-exit discount and its bitmap-scatter push is priced as if it ran
// on every core, so it pushes levels the calibrated model pulls. Three
// pieces close that gap:
//
//	Calibration  the planner counts each kernel's work terms
//	             (core.Work) and a core.CostModel prices them.
//	             `ppbench calibrate` replays BFS levels from several
//	             roots over kron, uniform, grid and RGG graphs, runs each
//	             level's MxV forced to push and to pull, least-squares-
//	             fits per-term nanoseconds to the counts and kernel times
//	             the plans record (Plan.Work, Plan.MeasuredNs) and writes
//	             the host-keyed profile PPTUNE_<os>_<arch>.json.
//	Planning     load the profile with `ppbench -tune <profile>`, or set
//	             Descriptor.CostModel or algorithms' Model options
//	             directly. Plan.PushCost and Plan.PullCost become
//	             wall-clock-comparable nanosecond estimates and
//	             Plan.PredictedNs records the chosen kernel's forecast. The
//	             zero model keeps historical unit behaviour everywhere.
//	Feedback     an MxV that records a Plan or feeds a corrector is timed
//	             around the kernel (monotonic clock, no allocations;
//	             Plan.MeasuredNs). On a descriptor a Workspace lends, a
//	             CostModel engages the run's corrector: the measured/
//	             predicted ratio feeds a per-direction EWMA that scales
//	             the next estimates, so a mis-fitted or borrowed profile
//	             converges toward the machine mid-traversal.
//
// `ppbench decisions` grades the result: it reruns both kernels at every
// BFS level and reports the fraction of iterations each model scheduled on
// the measured-faster kernel.
//
// The paper's five optimizations map onto the API as follows.
//
//	Change of direction — automatic in MxV; force with Descriptor.Direction.
//	Masking            — the mask argument of MxV/AssignVector, with
//	                     Descriptor.StructuralComplement for ¬m. A
//	                     word-packed mask lets pull skip 64 masked rows
//	                     per load, which is why algorithms.BFS keeps no
//	                     Section 3.2 unvisited list; a caller that has one
//	                     can still pass it as Descriptor.MaskAllowList.
//	Early-exit         — automatic whenever the semiring's additive monoid
//	                     declares a Terminal (e.g. Boolean OR saturates at
//	                     true); disable with Descriptor.NoEarlyExit.
//	Operand reuse      — an algorithm-level choice (pass the visited vector
//	                     as the input); see algorithms.BFS.
//	Structure-only     — a property of the semiring (its multiply form,
//	                     next section); Descriptor.StructureOnly forces
//	                     the One form on any semiring, halving push-phase
//	                     sort traffic.
//
// Types are generic over the stored element type. Semirings are ordinary
// values (see OrAndBool, PlusTimesFloat64, MinPlusFloat64, ...), so users
// can express BFS, SSSP, PageRank and friends by choosing (⊕, ⊗, I) — the
// generalized-semiring mechanism of the GraphBLAS C API.
//
// # Structure-only: multiply forms and pattern views
//
// The paper's Optimization 5 — never touch A.val when the semiring does
// not need it — is declared by the semiring, not remembered by the caller.
// Semiring.Form names what ⊗(a_ij, x_j) reads:
//
//	MulGeneral  Mul(a_ij, x_j): matrix and vector values (the zero value)
//	MulSecond   x_j: the vector value alone; Mul is never called and the
//	            matrix's value array is never loaded
//	MulOne      One: no value at all; what Descriptor.StructureOnly
//	            selects for any semiring (Boolean BFS)
//	MulIndex    j, the input's index: no value at all (SECONDI); only
//	            MinIndexUint32 runs it, as it has no general form
//
// The form is resolved once per call and every kernel — the four matvec
// variants under every input layout — branches on it outside its inner
// loops. MinSecondUint32, PlusSecondFloat64 and MaxSecondFloat64 ship as
// second-form; a custom semiring opts in by setting Form (and keeping a Mul
// that agrees). A push runs MulIndex as the second form over the input's
// index list; a pull stops at a row's first present j, its minimum, since
// matrix rows are sorted (ParentBFS's early exit).
//
// Four constructors also run concrete loops: the pull kernels (over every
// input layout and mask) fold PlusSecondFloat64, MinPlusFloat64,
// MinSecondUint32 and MinIndexUint32 with ⊕ and ⊗ written out, where
// every other semiring pays a closure call per edge. MxV recognises them by
// their operators, form and terminal, not by name: a literal, or a
// constructor's value with Add.Op, Mul, Form or Terminal reassigned, runs
// the closures (an index-form one has none and is an ErrInvalidValue), and
// an edited Identity is read on either path. Both paths
// fold in the same order, so results are bit-identical (MinPlusFloat64's
// loop keeps math.Min's −0 and NaN rules). Push kernels always call the
// closures.
//
// PatternAs[T](a) is the matching matrix: an O(1) view of a Boolean
// pattern typed for domain T. It shares the source's Ptr/Ind arrays, its
// CSR≡CSC aliasing for symmetric graphs (no symmetry walk, no transpose),
// and stores no values — so "multiply the adjacency
// pattern by a vector of ids / ranks / counts" copies no matrix bytes. A
// general-form multiply over a view returns ErrInvalidValue. The served
// algorithms all run this way:
//
//	BFS            or.and,  StructureOnly   Matrix[bool] itself
//	ParentBFS      min.secondi              PatternAs[uint32]
//	CC             min.second               PatternAs[uint32]
//	PageRank       plus.second              PatternAs[float64], x = r ⊘ outdeg
//	BC             plus.second              PatternAs[float64]
//	MIS            max.second               PatternAs[float64]
//	SSSP           min.plus (general)       a real weighted Matrix[float64]
//
// A pattern Matrix[bool] is itself pattern-only: generate, mmio.ReadPattern
// and any NewMatrixFromCSR over a CSR with a nil Val store Ptr and Ind and
// nothing else, under the view's rules (nil RowView values, ErrInvalidValue
// from a general-form multiply or from ExtractElement on a present entry).
// The callers that do read matrix values — the structure-only ablation
// (BFSOptions.DisableStructureOnly), the Table 1 microbenchmarks — attach
// them with ValuedAs(a, x): PatternAs plus one array of x, shared by both
// orientations.
//
// # The OpSpec operation pipeline
//
// Every vector operation runs through one declarative builder, so masks,
// descriptors and workspaces behave identically across the whole surface:
//
//	graphblas.Into(w).Mask(m).With(desc).MxV(sr, a, u)
//	graphblas.Into(f).Mask(visited).With(scmp).Apply(keep, f) // f⟨¬visited⟩ = f
//	graphblas.Into(active).Select(relax, cand)                // relax lowers dist where cand improves it
//
// Builder modifiers are optional and order-free. The uniform semantics:
//
//	mask    restricts the computed output pattern: only positions the
//	        effective mask allows are produced. StructuralComplement
//	        flips the test (¬m). Masks are structural (pattern-only), so
//	        any element type masks any op — a float64 frontier can mask a
//	        Boolean visited update (MaskVector).
//	replace MxV, Apply and Select replace w with the masked result. There
//	        is no accumulator: a relaxation folds where it filters, in its
//	        Select predicate — relax(i, d) lowers dist[i] to d and keeps i
//	        when d < dist[i] — which Select calls once per allowed element,
//	        in ascending order, on the calling goroutine.
//	assign  AssignVector is a merge by definition (replace=false): it
//	        overwrites only the positions the mask and operand pattern
//	        select.
//	desc    carries complement/transpose/workspace exactly as for MxV;
//	        only MxV chooses a direction, so only MxV writes
//	        Descriptor.Plan.
//
// The pipeline is format-aware end to end: kernels consume operands
// through the same core.VecView seam as matvec, and the *output* format
// follows the operand — apply and select over a sparse input produce a
// sparse list, over a bitset or dense input a bitset (dense when full) —
// so a dense PageRank vector never round-trips through a sparse copy.
// Steady-state calls with a pinned Workspace allocate nothing: sparse
// results build in the destination's own reusable buffers, bitset results
// in its value array and words, and aliased outputs bounce through the
// workspace scratch vector with a constant-time storage swap.
//
// GrB_vxm's uᵀ·A is Aᵀ·u: MxV with Descriptor.Transpose set.
//
// # Workspace lifecycle
//
// Iterative programs — the library's whole reason to exist — reach a
// zero-allocation steady state through the Workspace: a reusable scratch
// arena holding every transient the operation stack needs (the push
// kernel's gather buffers, the radix sort's ping-pong arrays and
// histograms, the sparse-mask word buffer, the aliased-output bounce
// vector (also a sparse assign's merge target), and the pinned parallel loop bodies that
// keep goroutine dispatch closure-free).
//
// Pin one across an algorithm's iterations, on the descriptor it lends:
//
//	ws := graphblas.AcquireWorkspace(a.NRows(), a.NCols())
//	defer ws.Release()
//	desc, plan := ws.PlannedDescriptor(graphblas.Descriptor{Transpose: true, ...})
//	for frontierNotEmpty {
//		graphblas.Into(f).Mask(visited).With(desc).MxV(sr, a, f) // 0 allocs once warm
//	}
//
// Acquire/Release round-trips a pool keyed by the matrix dimensions, so
// consecutive runs over the same graph shape share warm buffers. It is the
// only workspace pool: the kernel arena inside a Workspace is pooled with
// it and never on its own. When a descriptor carries no Workspace
// (auto-pooling), each operation acquires a pooled workspace itself and
// releases it before returning — callers still skip the large allocations,
// paying only the pool round-trip, and results are always safe because
// operations copy kernel output out of workspace storage into the
// destination vector's own reusable arrays.
//
// A workspace serves one operation at a time: do not share one (or a
// descriptor pinning one) between concurrent operations — concurrent runs
// should each acquire their own. Buffers grow to the high-water mark of
// the calls they serve and stay there until the pool's contents are
// collected.
//
// # Concurrency contract
//
// Goroutine-safe (share freely once built):
//
//	Matrix and its CSR/CSC views   immutable after construction
//	Semiring, BinaryOp, Monoid     plain values, never mutated by ops
//	core.CostModel                 read-only coefficients
//
// Per-goroutine (one owner at a time, never shared by concurrent calls):
//
//	Vector        all formats; even read-only use can convert storage
//	Workspace     scratch arena and a run's mutable state: the
//	              cancellation token, the descriptors, plan and corrector
//	              it lends
//	Descriptor    only when it pins a Workspace or a Plan sink; any other,
//	              Context included, is plain data and may be shared
//
// Concurrent algorithm runs should each build their own vectors and
// acquire their own workspace; the package-level pools behind
// AcquireWorkspace and the parallel runtime's worker set are themselves
// goroutine-safe.
//
// The audited serving rule is therefore: one Workspace per goroutine, one
// Matrix for everyone. Any number of concurrent traversals may read the
// same Matrix: it is immutable from construction on and builds no state
// lazily, so there is nothing in it to lock. The direction planner's
// hysteresis rides on the input Vector (per-traversal by construction) and
// the corrector's EWMAs on the Workspace, so concurrent queries cannot
// bend each other's direction decisions. graphblas/concurrency_test.go
// pins this contract under the race detector.
//
// # Fault aftermath
//
// Two failure modes can interrupt an operation, and they leave different
// state behind:
//
// Cancellation (ErrCancelled): when Descriptor.Context is done, the op
// returns an error wrapping ErrCancelled (and the context's cause) at the
// next phase boundary, and the parallel kernels stop claiming work at
// chunk granularity. Everything
// is left clean: workspaces — pinned or pooled — remain valid and
// poolable and kernel epilogues still restore arena invariants. The
// destination vector may hold a structurally valid partial result;
// callers that observe ErrCancelled should discard or ignore it.
// The live-path context check is allocation-free, so an abortable loop
// keeps its zero-allocation steady state.
//
// Kernel panic (ErrKernelPanic): a panic inside a kernel or user operator
// is captured on the dispatching goroutine — never another worker — and
// returned as a *PanicError wrapping ErrKernelPanic, carrying the
// panicking value and stack. The workspace the kernel was running on is
// tainted: it is dropped on Release instead of pooled, and a descriptor
// still pinning it treats it as absent (subsequent calls fall back to
// fresh pooled scratch), so corrupted scratch never resurfaces. The
// destination vector is structurally valid but its contents are
// unspecified; rebuild it before trusting it. The worker pool itself is
// unaffected — parked workers survive panics and later operations run
// normally.
//
// # Graph construction
//
// Every Matrix is built by one path. Generators and the Matrix Market
// reader hand internal/sparse an edge list — one packed word per edge, one
// direction per undirected edge plus a mirror flag — and NewMatrixFromCOO
// packs its triples into the same list; the builder makes two stable
// counting passes and no comparison: it buckets every entry by column, then
// walks the buckets in column order appending each entry to its row, so rows
// come out sorted and a duplicate meets the entry it repeats. Duplicates fold
// in input order (last write wins without a dup operator). Beyond the arrays
// at their final size a build allocates the edge list, a 4-byte word per
// entry and a few counters per column and row: about 3.5× the result. It
// holds less at once: a large edge list, consumed by the first pass, goes
// back to the OS before the second allocates the result, so the resident
// peak is the list and the bucketed words, then those words and the
// result — about 2.4× the result.
//
// NewMatrixFromCSR then needs the column-major view. A build that mirrored
// its edge list — every undirected generator and symmetric Matrix Market
// file — certifies that the matrix equals its transpose
// (sparse.CSR.KnownSymmetric), and so does generate.WeightedCopy of a
// symmetric pattern, which also shares the pattern's Ptr and Ind: the CSC
// view is then the CSR itself, unchecked (Symmetric reports true). Any
// other CSR is walked the way a counting-sort transpose would — keeping only
// the per-row write cursors, comparing index and value at the position each
// entry would land instead of writing it — and when the walk completes the
// CSC view is again the CSR itself. Only when the walk fails, usually within
// a few rows, is the transpose materialised: a directed graph costs two
// structures, an undirected one costs one. For a server this is what a hot
// reload costs beside the live snapshot: the 131072-vertex, 3.7M-entry
// Kronecker graph of the repository benchmark rebuilds in about 0.2 s on
// two cores — half of it drawing its 35.7M random numbers, half the two
// counting passes — allocating 54 MB, of which the 16 MB of Ptr and Ind
// stay, and raising the resident peak by 38 MB.
//
// # Serving
//
// The concurrency contract and the fault aftermath together are what make
// the library servable: cmd/ppserve (package internal/serve) keeps a
// fixed pool of worker goroutines over graphs loaded once, each worker
// pinning one Workspace per graph shape so repeat queries run the
// allocation-free kernel path, with per-query deadline contexts tearing
// down overdue traversals mid-flight and kernel panics costing one
// tainted arena instead of the process.
//
// Graphs themselves live behind refcounted snapshots: a query acquires
// its graph's current snapshot at admission and releases it at
// completion, and a hot reload (SIGHUP or POST /admin/reload) builds the
// replacement off to the side — load, then a validation gate of
// dimension and CSR/CSC parity checks plus a push-vs-pull smoke
// traversal — before atomically swapping it in. A snapshot that fails
// the gate rolls back to the old one; a retired snapshot frees (workers'
// pinned arenas for dead shapes pruned) only after its last in-flight
// query releases it, so a traversal never observes a torn or freed graph.
// It is also the lifetime of a served graph's arrays: a snapshot's copy of
// the matrix (Relocate) lives outside the collected heap, unmapped at the
// last release, so its CSR, CSC, RowView and views (PatternAs, ValuedAs,
// generate.WeightedCopy) are valid only while the snapshot is held.
// Because a Matrix is immutable after construction, the swap is just a pointer:
// nothing in this package needs locking to make reload safe. Workers
// self-heal on top — a streak of consecutive kernel faults retires the
// worker and its arenas for a fresh replacement — and a graph that fails
// to load degrades the process (failed graph answers 503, the rest keep
// serving) instead of killing it.
//
// Overload is handled at the door, not in the queue. The serving tier
// extends the paper's per-iteration cost model one level up into a
// whole-query predictor: the calibrated model prices a full-sweep bound
// per (graph, algorithm) before any query has run, and an EWMA over
// measured run times refines it from live traffic. Admission prices
// every query against that estimate — a query whose deadline the
// predicted backlog already makes unmeetable is shed immediately with an
// honest Retry-After instead of being admitted to time out in line — and
// a class-aware earliest-deadline-first scheduler (interactive before
// batch, with an anti-starvation aging bound) replaces FIFO claiming.
// Per-query execution budgets ride the same Descriptor.Context seam the
// deadlines use: the budget is a deadline on the run context with
// ErrBudgetExceeded as its cancellation cause, so a tripped query tears
// down at the next phase boundary like any cancellation, surfaces
// distinguishably from both deadline expiry and client abandonment, and
// still returns the algorithm's coherent partial progress. See the
// internal/serve package docs for the lifecycle and admission design and
// the README for the HTTP quickstart.
package graphblas
