package graphblas

import (
	"context"

	"pushpull/internal/core"
	"pushpull/internal/par"
)

// TraversalDirection is the kernel orientation an operation reports having
// chosen (the second return of MxV and the Direction field of BFS traces).
// It aliases the internal kernel type so callers can name and compare it
// without importing internal packages.
type TraversalDirection = core.Direction

// The two traversal directions.
const (
	PushDirection TraversalDirection = core.Push
	PullDirection TraversalDirection = core.Pull
)

// Direction optionally pins MxV to one kernel.
type Direction int

const (
	// Auto lets MxV's planner choose the kernel from its edge cost model
	// (the paper's Optimization 1); the input's format then follows.
	Auto Direction = iota
	// ForcePush always uses the column-based (SpMSpV) kernel.
	ForcePush
	// ForcePull always uses the row-based (SpMV) kernel.
	ForcePull
)

// Descriptor modifies an operation's behaviour, mirroring GrB_Descriptor.
// The zero value is the default configuration; descriptors are plain data
// and may be shared between calls.
type Descriptor struct {
	// StructuralComplement uses ¬mask instead of mask (GrB_SCMP): indices
	// where the mask is *empty* pass. This is how BFS expresses "only
	// unvisited vertices" from the visited vector.
	StructuralComplement bool

	// Transpose multiplies by Aᵀ instead of A (GrB_INP0/GrB_TRAN). Because
	// the matrix stores both orientations this costs nothing — it swaps
	// which view each kernel reads, exactly the isomorphism the paper uses
	// to express push-pull as one formula.
	Transpose bool

	// Direction optionally forces push or pull, overriding the planner
	// (Optimization 1 override).
	Direction Direction

	// StructureOnly runs kernels in pattern mode (Optimization 5): matrix
	// and vector values are never read and discovered outputs get the
	// semiring's One. Only meaningful for semirings whose ⊕ is idempotent
	// on {One}, such as Boolean OR.
	StructureOnly bool

	// NoEarlyExit suppresses the early-exit break even when the semiring
	// has an additive terminal (Optimization 3 override, for ablation).
	NoEarlyExit bool

	// MaskAllowList, when non-nil, enumerates (sorted ascending) exactly
	// the output indices the effective mask allows, letting the masked
	// pull kernel skip the O(M) mask scan — the paper's Section 3.2
	// amortization. The caller must keep the list consistent with the mask
	// and complement flag. No algorithm here sets it any more: a
	// word-packed mask already skips 64 masked rows per load, and keeping
	// the list current cost BFS more than the scan it saved. The field and
	// its kernel branches stay because bench/ppload times them
	// (core.pull_ns_per_edge.*); removing them is that benchmark's change
	// to make.
	MaskAllowList []uint32

	// CostModel, when non-nil, prices the direction planner's estimates
	// with calibrated per-term nanosecond coefficients instead of unit RAM
	// costs, so Plan.PushCost/PullCost become wall-clock-comparable and
	// Plan.PredictedNs is set. Profiles are fitted by `ppbench calibrate`
	// (internal/calibrate) and loaded with `-tune`; nil keeps the unit
	// model.
	CostModel *core.CostModel

	// Corrector, when non-nil, closes the feedback loop: each MxV run with
	// this descriptor is timed (monotonic clock, no allocations) and the
	// (predicted, measured) pair folded into the corrector's per-direction
	// EWMA, which the planner multiplies into its next estimates. Only
	// meaningful alongside CostModel — the unit model sets no PredictedNs,
	// leaving the corrector inert. Like Workspace, a corrector is mutable
	// per-traversal state: do not share one across concurrent operations.
	Corrector *core.Corrector

	// Plan, when non-nil, receives the direction planner's full record for
	// each MxV run with this descriptor (chosen direction, estimated
	// push/pull costs, trend flags, rule, measured time when timed); other
	// operations choose no direction and leave it untouched. ppbench and
	// the experiment harness use it to plot decision quality against
	// measured runtimes.
	Plan *core.Plan

	// Workspace, when non-nil, pins a scratch arena across calls so
	// iterative algorithms reach a zero-allocation steady state: gather
	// buffers, sort scratch, mask words and accumulate targets are all
	// reused call over call. When nil, each operation auto-acquires a
	// pooled workspace sized to the matrix and releases it on return.
	// Unlike the other fields a pinned workspace is mutable state: a
	// descriptor carrying one must not be shared by concurrent operations.
	Workspace *Workspace

	// Context, when non-nil, makes operations run with this descriptor
	// abortable: each op checks it between kernel phases and returns a
	// wrapped ErrCancelled once it is done, and the parallel kernels stop
	// claiming chunks as soon as the cancellation token bridged from it
	// trips. The live-path check is allocation-free. Like Workspace, a
	// descriptor carrying a Context holds mutable per-call state (the
	// cached token) and must not be shared by concurrent operations.
	Context context.Context

	// tok bridges Context to the par layer's chunk-claim checks, cached on
	// first use so steady-state calls allocate nothing.
	tok *par.Token
}

// coreOpts translates the descriptor into kernel options, threading the
// kernel arena of the resolved workspace (the descriptor's pinned one, or
// the operation's auto-acquired one) down to the kernels.
func (d *Descriptor) coreOpts(ws *Workspace) core.Opts {
	if d == nil {
		return core.Opts{EarlyExit: true, Ws: ws.kernel}
	}
	return core.Opts{
		StructureOnly: d.StructureOnly,
		EarlyExit:     !d.NoEarlyExit,
		Ws:            ws.kernel,
		Cancel:        d.cancelToken(),
	}
}

// workspace returns the pinned workspace, nil-safe. A workspace tainted by
// an earlier kernel panic is reported as absent, so subsequent operations
// fall back to fresh pooled scratch instead of running on corrupted arenas.
func (d *Descriptor) workspace() *Workspace {
	if d == nil || d.Workspace == nil || d.Workspace.tainted {
		return nil
	}
	return d.Workspace
}

// cancelToken returns the par-layer token for the descriptor's Context,
// cached across calls (and rebound if the caller swaps Context) so the
// steady-state path never allocates.
func (d *Descriptor) cancelToken() *par.Token {
	if d == nil || d.Context == nil {
		return nil
	}
	if d.tok == nil || d.tok.Context() != d.Context {
		d.tok = par.NewToken(d.Context)
	}
	return d.tok
}

// context returns the descriptor's context, nil-safe.
func (d *Descriptor) context() context.Context {
	if d == nil {
		return nil
	}
	return d.Context
}
