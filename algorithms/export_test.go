package algorithms

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
	RefPageRank         = refPageRank
	WeightedFromBool    = weightedFromBool
	CheckDepths         = checkDepths
)
