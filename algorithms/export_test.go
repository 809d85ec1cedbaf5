package algorithms

// Internals the external test package (which may import generate) needs.
const RaceEnabled = raceEnabled

var UndirectedFromEdges = undirectedFromEdges
