package algorithms

import (
	"fmt"
	"math/bits"

	"pushpull/graphblas"
)

// MultiBFS runs up to 64 BFS traversals at once with bit-parallel frontiers
// (MS-BFS), the batching behind the paper's batched betweenness centrality
// (Section 5.6): bit s of a vertex's word means "reached from sources[s]",
// and one matvec per level, f ← Aᵀf over (OR, second) on uint64 lanes,
// advances every traversal through the same pipeline and planner as BFS.
// The seen words then play the ¬visited mask lane by lane. depths[s][v] is
// v's level from sources[s], or -1 if unreached.
func MultiBFS(a *graphblas.Matrix[bool], sources []int) ([][]int32, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: MultiBFS needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if len(sources) == 0 {
		return nil, nil
	}
	if len(sources) > 64 {
		return nil, fmt.Errorf("algorithms: MultiBFS supports at most 64 sources, got %d", len(sources))
	}
	ws := graphblas.AcquireWorkspace(n, n)
	defer ws.Release()
	f := graphblas.ScratchVector[uint64](ws, 0, n)
	f.Clear()
	seen := make([]uint64, n) // lanes each vertex has been reached by
	// One slab holds every lane's depths, a cache line more than n apart, so
	// a vertex's lane writes do not alias in L1 at a power-of-two stride.
	stride := n + 16
	slab := make([]int32, len(sources)*stride)
	for i := range slab {
		slab[i] = -1
	}
	depths := make([][]int32, len(sources))
	for s, src := range sources {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("algorithms: MultiBFS source %d out of range [0,%d)", src, n)
		}
		depths[s] = slab[s*stride : s*stride+n : s*stride+n]
		depths[s][src] = 0
		seen[src] |= 1 << s
		_ = f.SetElement(src, seen[src]) // cannot fail: src is in range
	}
	// Once a row's neighbours deliver every source's lane it cannot gain
	// more: that word is the OR monoid's terminal, so pull exits early.
	all := ^uint64(0) >> (64 - len(sources))
	sr := graphblas.Semiring[uint64]{
		Add:  graphblas.Monoid[uint64]{Op: func(x, y uint64) uint64 { return x | y }, Terminal: &all},
		Mul:  func(_, x uint64) uint64 { return x },
		One:  all,
		Form: graphblas.MulSecond,
	}
	pat := graphblas.PatternAs[uint64](a)
	desc := runDescriptor(ws, graphblas.Descriptor{Transpose: true})
	// One pass per level: the Select keeps the vertices some lane reaches
	// for the first time and, in the same call, stamps those lanes' depths
	// and marks them seen.
	var depth int32
	fresh := func(v int, x uint64) bool {
		lanes := x &^ seen[v]
		for l := lanes; l != 0; l &= l - 1 {
			slab[bits.TrailingZeros64(l)*stride+v] = depth
		}
		seen[v] |= x
		return lanes != 0
	}
	for depth = 1; f.NVals() > 0; depth++ {
		if _, err := graphblas.Into(f).With(desc).MxV(sr, pat, f); err != nil {
			return nil, err
		}
		if err := graphblas.Into(f).With(desc).Select(fresh, f); err != nil {
			return nil, err
		}
	}
	return depths, nil
}
