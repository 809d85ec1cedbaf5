package algorithms

import (
	"context"
	"fmt"

	"pushpull/graphblas"
)

// ConnectedComponents labels the weakly connected components of a graph
// with frontier-driven label propagation over the (min, second) semiring —
// another instance of the paper's generality claim: the active set (labels
// that changed last round) is the frontier, propagation is a matvec, and
// the same push-pull machinery applies through MxV's automatic direction
// choice.
//
// Returns labels[i] = the smallest vertex id in i's component. For
// directed inputs, edges are treated as bidirectional (weak connectivity).
func ConnectedComponents(a *graphblas.Matrix[bool]) ([]uint32, error) {
	return ConnectedComponentsRun(a, CCOptions{})
}

// CCOptions configures ConnectedComponentsRun, the options form of
// ConnectedComponents.
type CCOptions struct {
	// Workspace, when non-nil, pins the caller's scratch arena for the run
	// instead of acquiring a pooled one (see BFSOptions.Workspace): not
	// released by the run, not shareable between concurrent operations.
	Workspace *graphblas.Workspace
	// Out, when it has exactly n elements, receives the labels: the result
	// aliases the buffer; the caller may reuse it only after it is done with
	// the result (package docs, "Result buffers").
	Out []uint32
	// Context, when non-nil, makes the propagation abortable: the pipeline
	// checks it between kernel phases, the parallel kernels stop claiming
	// chunks once it is done, and the propagation loop checks it at each
	// round boundary. A cancelled run returns a wrapped
	// graphblas.ErrCancelled along with the partial labels — upper bounds on
	// the final labels, since propagation only ever lowers them.
	Context context.Context
}

// ConnectedComponentsRun is ConnectedComponents with the full option set.
func ConnectedComponentsRun(a *graphblas.Matrix[bool], opt CCOptions) ([]uint32, error) {
	ctx := opt.Context
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: ConnectedComponents needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	// Weak connectivity: propagate along both edge orientations (the
	// matrix holds both views, so the reverse pass just multiplies by A
	// instead of Aᵀ). For symmetric graphs one pass suffices.
	ids := graphblas.PatternAs[uint32](a)
	sr := graphblas.MinSecondUint32()

	// One workspace serves both propagation passes for the whole run. The
	// working vectors are the workspace's uint32 slots, so a pinned
	// workspace carries them run over run.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	const (
		slotLabels = iota
		slotActive
		slotCand
		slotRevCand
	)
	// Labels live in a Dense vector (labels(i) = i initially) so the relax
	// fold reads and lowers the value array directly. The first active set
	// is every label, stamped the same way.
	labels := graphblas.ScratchVector[uint32](ws, slotLabels, n)
	active := graphblas.ScratchVector[uint32](ws, slotActive, n)
	for _, v := range []*graphblas.Vector[uint32]{labels, active} {
		v.Clear()
		v.Fill(0)
		for i, lv := 0, v.DenseView(); i < n; i++ {
			lv[i] = uint32(i)
		}
	}
	labVal := labels.DenseView()
	// cand is each round's replace-mode MxV output: never read stale. An
	// asymmetric graph's reverse pass gets its own output, rcand, so a
	// symmetric run takes no fourth slot.
	cand := graphblas.ScratchVector[uint32](ws, slotCand, n)
	var rcand *graphblas.Vector[uint32]
	if !a.Symmetric() {
		rcand = graphblas.ScratchVector[uint32](ws, slotRevCand, n)
	}

	fwdDesc := runDescriptor(ws, graphblas.Descriptor{Transpose: true, Context: ctx})
	revDesc := ws.SecondDescriptor(graphblas.Descriptor{Context: ctx})
	// The relax fold: a candidate label that improves lowers labels in
	// place and survives the Select (see SSSP).
	relax := func(i int, l uint32) bool {
		if l < labVal[i] {
			labVal[i] = l
			return true
		}
		return false
	}
	// Partial result for aborted runs: every label is an upper bound on the
	// final component id (propagation only ever lowers labels).
	snapshot := func() []uint32 {
		out := resultBuf(opt.Out, n)
		copy(out, labVal)
		return out
	}

	for round := 0; round < n && active.NVals() > 0; round++ {
		// Round boundary: a cancelled context aborts within one round,
		// returning the partial labels.
		if err := graphblas.CheckContext(ctx); err != nil {
			return snapshot(), err
		}
		// cand = min over in-neighbours' labels (Aᵀ); for asymmetric
		// graphs rcand = min over out-neighbours' labels (A).
		if _, err := graphblas.Into(cand).With(fwdDesc).MxV(sr, ids, active); err != nil {
			return snapshot(), err
		}
		if rcand != nil {
			if _, err := graphblas.Into(rcand).With(revDesc).MxV(sr, ids, active); err != nil {
				return snapshot(), err
			}
		}
		// Relax in one pass: the next active set is the candidates that
		// improve, and selecting them lowers labels.
		if err := graphblas.Into(active).With(fwdDesc).Select(relax, cand); err != nil {
			return snapshot(), err
		}
		if rcand != nil {
			// Fold rcand after cand: a survivor is below the label cand
			// left, so overwriting active with it keeps the min of both.
			if err := graphblas.Into(rcand).With(fwdDesc).Select(relax, rcand); err != nil {
				return snapshot(), err
			}
			if err := graphblas.Into(active).With(fwdDesc).AssignVector(rcand); err != nil {
				return snapshot(), err
			}
		}
	}
	return snapshot(), nil
}
