package core

// This file keeps the direction vocabulary and the paper's Section 6.3
// switch-point constant. The planner does not read the constant: the
// direction comes from the edge cost model (planner.go), and the
// switch-point is where the storage layer settles a shrinking frontier
// back to a sparse list.

// DefaultSwitchPoint is the paper's α = β = 0.01: "once we have visited 1%
// of vertices in the graph in a BFS, we are sure to have hit a supernode."
// The storage layer uses it as the bitset→sparse settle threshold.
const DefaultSwitchPoint = 0.01

// Direction names the matvec orientation chosen for an operation.
type Direction int

const (
	// Push is the column-based (SpMSpV) direction, profitable for sparse
	// frontiers.
	Push Direction = iota
	// Pull is the row-based (SpMV) direction, profitable for dense
	// frontiers with a sparse output mask.
	Pull
)

// String returns "push" or "pull".
func (d Direction) String() string {
	if d == Push {
		return "push"
	}
	return "pull"
}
