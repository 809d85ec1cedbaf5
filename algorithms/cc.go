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
// choice. The rounds are the relaxation loop CC shares with SSSP
// (relax.go), and a pull reads the dense labels in place of the active set
// (operand reuse, exact for a relaxation).
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
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: ConnectedComponents needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	// The labels and active set are the workspace's uint32 slots, so a
	// pinned workspace carries them run over run.
	ws := opt.Workspace
	if ws == nil {
		ws = graphblas.AcquireWorkspace(n, n)
		defer ws.Release()
	}
	fwd := runDescriptor(ws, graphblas.Descriptor{Transpose: true, Context: opt.Context})
	// Weak connectivity: an asymmetric graph also propagates along A (the
	// matrix holds both views) in a reverse pass. A symmetric one needs none.
	var rev *graphblas.Descriptor
	if !a.Symmetric() {
		rev = ws.SecondDescriptor(graphblas.Descriptor{Context: opt.Context})
	}
	// labels(i) = i, and every vertex starts active, stamped the same way.
	init := func(labels, active *graphblas.Vector[uint32]) {
		for _, v := range []*graphblas.Vector[uint32]{labels, active} {
			v.Fill(0)
			for i, lv := 0, v.DenseView(); i < n; i++ {
				lv[i] = uint32(i)
			}
		}
	}
	// Both passes pull from the dense labels (operand reuse; see relax).
	return relax(ws, graphblas.MinSecondUint32(), graphblas.PatternAs[uint32](a), fwd, rev, true, opt.Out, init, nil)
}
