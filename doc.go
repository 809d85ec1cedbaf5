// Package pushpull is a Go reproduction of "Implementing Push-Pull
// Efficiently in GraphBLAS" (Yang, Buluç, Owens — ICPP 2018).
//
// The importable library lives in the subpackages:
//
//	graphblas   GraphBLAS-style sparse linear algebra with automatic
//	            push-pull direction optimization in MxV: a three-format
//	            vector engine (sparse / bitset / dense, presence packed
//	            64-to-a-word for single-bit probes and popcount
//	            density, dense skipping the probe) behind format-agnostic
//	            kernel views, driven by an edge-based cost-model
//	            direction planner (see the package docs' "Storage
//	            formats and the direction planner"). Every vector
//	            operation — MxV, apply, select, assign — takes
//	            masks and descriptors through one declarative OpSpec
//	            builder: Into(w).Mask(m).With(desc).Op(...) (see "The
//	            OpSpec operation pipeline")
//	algorithms  BFS (Algorithm 1), parent BFS, 64-source MultiBFS, SSSP,
//	            connected components, PageRank (exact or adaptive), MIS,
//	            betweenness centrality — all MxV consumers
//	generate    RMAT/Kronecker, RGG, grid and Erdős–Rényi generators,
//	            MatrixMarket I/O (generate/mmio)
//
// Iterative algorithms reach a zero-allocation steady state: every kernel
// transient (gather buffers, sort scratch, mask word buffers) lives in a
// reusable Workspace that algorithms pin across their run — and that
// operations auto-acquire from a dimension-keyed pool when none is pinned.
// See graphblas.Workspace for the lifecycle and internal/core.Workspace for
// the kernel-level arena it owns.
//
// This root package only anchors the module and the top-level benchmark
// suite (bench_test.go), which regenerates every table and figure of the
// paper's evaluation; see also cmd/ppbench.
package pushpull
