package algorithms

import (
	"context"
	"fmt"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// ParentBFS runs a Graph500-style BFS that records, for every reached
// vertex, the parent through which it was first discovered: BFS's level
// loop over the (min, secondi) semiring (graphblas.MinIndexUint32), whose
// multiply yields the neighbour's own id, so each vertex's parent is its
// smallest in-neighbour one level up.
//
// Returned parents[i] is the parent of i, parents[source] == source, and
// -1 marks unreached vertices.
func ParentBFS(a *graphblas.Matrix[bool], source int) ([]int64, error) {
	return ParentBFSRun(a, source, ParentBFSOptions{})
}

// ParentBFSOptions configures ParentBFSRun, the options form of ParentBFS.
type ParentBFSOptions struct {
	// Model prices the matvec pipeline's direction planner with calibrated
	// coefficients. ParentBFS plans nothing itself — its matvecs run with
	// Direction == Auto on the workspace's run descriptor — so the model,
	// and with it the run's feedback corrector, rides that descriptor into
	// the MxV pipeline's own planner, which times every kernel it
	// schedules. Nil keeps the unit model.
	Model *core.CostModel
	// Workspace, when non-nil, pins the caller's scratch arena for the run
	// instead of acquiring a pooled one (see BFSOptions.Workspace): not
	// released by ParentBFS, not shareable between concurrent operations.
	Workspace *graphblas.Workspace
	// Out, when it has exactly n elements, receives the parents: the result
	// aliases the buffer; the caller may reuse it only after it is done with
	// the result (package docs, "Result buffers").
	Out []int64
	// Context, when non-nil, makes the traversal abortable: the pipeline
	// checks it between kernel phases, the parallel kernels stop claiming
	// chunks once it is done, and the traversal checks it at each level
	// boundary. A cancelled run returns a wrapped graphblas.ErrCancelled
	// along with the partial parent array discovered so far (unreached
	// vertices stay -1).
	Context context.Context
}

// ParentBFSRun is ParentBFS with the full option set.
func ParentBFSRun(a *graphblas.Matrix[bool], source int, opt ParentBFSOptions) ([]int64, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: ParentBFS needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if source < 0 || source >= n {
		return nil, fmt.Errorf("algorithms: ParentBFS source %d out of range [0,%d)", source, n)
	}
	parents := resultBuf(opt.Out, n)
	for i := range parents {
		parents[i] = -1
	}
	parents[source] = int64(source)

	// The frontier and the word-packed visited set are CC's two uint32
	// slots, so a pinned workspace carries them run over run. Their values
	// are parents, which nothing reads: min.secondi multiplies by index.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	const (
		slotFrontier = iota
		slotVisited
	)
	f := graphblas.ScratchVector[uint32](ws, slotFrontier, n)
	f.Clear()
	if err := f.SetElement(source, uint32(source)); err != nil {
		return nil, err
	}
	visited := graphblas.ScratchVector[uint32](ws, slotVisited, n)
	visited.Clear()
	visited.ToBitset()
	if err := visited.SetElement(source, uint32(source)); err != nil {
		return nil, err
	}

	// BFS with a parent write: a pull reads the visited set (an unvisited
	// row's visited in-neighbours are exactly its frontier ones) and stops
	// at the row's first, so smallest, hit; a push forwards each frontier
	// vertex's index. min.secondi reads no matrix value, so an O(1) typed
	// view of the pattern suffices.
	desc := runDescriptor(ws, graphblas.Descriptor{Transpose: true, StructuralComplement: true, CostModel: opt.Model, Context: opt.Context})
	step := graphblas.Into(f).Mask(visited).PullInput(visited).With(desc)
	err := sweep(opt.Context, step, graphblas.MinIndexUint32(), graphblas.PatternAs[uint32](a), f, visited, func(int, time.Time) error {
		f.Iterate(func(i int, parent uint32) bool {
			parents[i] = int64(parent)
			return true
		})
		return nil
	})
	return parents, err
}
