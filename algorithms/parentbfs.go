package algorithms

import (
	"context"
	"fmt"

	"pushpull/graphblas"
	"pushpull/internal/core"
)

// ParentBFS runs a Graph500-style BFS that records, for every reached
// vertex, the parent through which it was first discovered. It uses the
// (min, second) semiring over vertex ids: each frontier vertex carries its
// own id, the multiply forwards the carrier's id to its neighbours, and
// min picks a deterministic winner among competing parents.
//
// Returned parents[i] is the parent of i, parents[source] == source, and
// -1 marks unreached vertices.
func ParentBFS(a *graphblas.Matrix[bool], source int) ([]int64, error) {
	return ParentBFSRun(a, source, ParentBFSOptions{})
}

// ParentBFSOptions configures ParentBFSRun, the options form of ParentBFS.
type ParentBFSOptions struct {
	// Model prices the matvec pipeline's direction planner with calibrated
	// coefficients. ParentBFS plans nothing itself — its matvec runs with
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
	ctx := opt.Context
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: ParentBFS needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	if source < 0 || source >= n {
		return nil, fmt.Errorf("algorithms: ParentBFS source %d out of range [0,%d)", source, n)
	}
	// The traversal multiplies over uint32 ids; min.second never reads a
	// matrix value, so an O(1) typed view of the pattern suffices.
	ids := graphblas.PatternAs[uint32](a)
	sr := graphblas.MinSecondUint32()

	parents := resultBuf(opt.Out, n)
	for i := range parents {
		parents[i] = -1
	}
	parents[source] = int64(source)

	// One workspace across the traversal, lending both descriptors; the
	// f ← Aᵀf aliased matvec bounces through the workspace scratch vector.
	// The visited set is BFS's bool slot and the frontier CC's uint32
	// active slot, so a pinned workspace carries them run over run.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	const (
		slotVisited  = 1 // bool
		slotFrontier = 1 // uint32
	)
	visited := graphblas.ScratchVector[bool](ws, slotVisited, n)
	// Word-packed visited set: the masked matvec reads it as packed words
	// zero-copy and the per-level scalar assign flips single bits in place.
	visited.Clear()
	visited.ToBitset()
	if err := visited.SetElement(source, true); err != nil {
		return nil, err
	}
	f := graphblas.ScratchVector[uint32](ws, slotFrontier, n)
	f.Clear()
	if err := f.SetElement(source, uint32(source)); err != nil {
		return nil, err
	}

	// The matvec's descriptor carries the model, and with it the run's
	// corrector; the assign's has no model, so it feeds none.
	desc := runDescriptor(ws, graphblas.Descriptor{Transpose: true, StructuralComplement: true, CostModel: opt.Model, Context: ctx})
	assignDesc := ws.SecondDescriptor(graphblas.Descriptor{Context: ctx})

	stamp := func(i int, _ uint32) uint32 { return uint32(i) }
	for f.NVals() > 0 {
		// Level boundary: a cancelled context aborts within one iteration,
		// returning the parents discovered so far.
		if err := graphblas.CheckContext(ctx); err != nil {
			return parents, err
		}
		if _, err := graphblas.Into(f).Mask(visited).With(desc).MxV(sr, ids, f); err != nil {
			return parents, err
		}
		f.Iterate(func(i int, parent uint32) bool {
			parents[i] = int64(parent)
			return true
		})
		// visited⟨f⟩ = true: masks are structural, so the uint32 frontier
		// masks the Boolean visited vector directly — no pattern copy.
		if err := graphblas.Into(visited).Mask(f).With(assignDesc).AssignScalar(true); err != nil {
			return parents, err
		}
		// Re-stamp each newly discovered vertex with its own id so the
		// next hop forwards the right parent (in place: same pattern).
		if err := graphblas.Into(f).ApplyIndexed(stamp, f); err != nil {
			return parents, err
		}
	}
	return parents, nil
}
