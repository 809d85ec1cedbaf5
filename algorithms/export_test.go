package algorithms

import (
	"time"

	"pushpull/graphblas"
)

// Internals the external test package (which may import generate) needs.
const RaceEnabled = raceEnabled

var (
	UndirectedFromEdges = undirectedFromEdges
	RandUndirected      = randUndirected
	PathGraph           = pathGraph
	StarPlusClique      = starPlusClique
	OptionMatrix        = optionMatrix
	RefBFS              = refBFS
	RefDijkstra         = refDijkstra
	RefComponents       = refComponents
	RefBC               = refBC
	RefPageRank         = refPageRank
	WeightedFromBool    = weightedFromBool
	CheckDepths         = checkDepths
	CheckParents        = checkParents
)

// RelaxStateSlot is the workspace slot of a relaxation run's dense state.
const RelaxStateSlot = slotState

// Relax runs the relaxation loop SSSP and ConnectedComponentsRun share.
func Relax[T float64 | uint32](ws *graphblas.Workspace, sr graphblas.Semiring[T], a *graphblas.Matrix[T], desc, rev *graphblas.Descriptor, pullState bool,
	init func(state, active *graphblas.Vector[T]), each func(round int, start time.Time, active *graphblas.Vector[T])) ([]T, error) {
	return relax(ws, sr, a, desc, rev, pullState, nil, init, each)
}
