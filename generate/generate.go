// Package generate builds the synthetic graphs the experiments run on.
// The paper's datasets (Table 3) fall into two classes — scale-free graphs
// with supervertices (soc-*, hollywood, indochina, kron_g500, rmat_*) and
// bounded-degree high-diameter meshes (rgg, roadNet, road_usa) — and this
// package provides a generator for each: RMAT/Kronecker (the same family
// as kron_g500 and the rmat_* graphs), random geometric graphs, 2-D grids
// (road stand-ins), and Erdős–Rényi for tests.
//
// All generators are deterministic for a given seed, remove self-loops,
// fold duplicate edges, and (when undirected) store both edge directions,
// matching the paper's dataset preparation.
package generate

import (
	"fmt"
	"math"
	"math/rand"

	"pushpull/graphblas"
	"pushpull/internal/par"
	"pushpull/internal/sparse"
)

// PatternMatrix is the Boolean adjacency matrix type every generator
// returns, aliased for readability in caller signatures. It is pattern-only
// — Ptr and Ind, no stored values (see graphblas.PatternAs for the rules) —
// which is all the structure-only and second-form semirings read.
type PatternMatrix = *graphblas.Matrix[bool]

// Graph500 RMAT partition probabilities (a, b, c; d is the remainder) —
// the parameters behind kron_g500-logn21.
const (
	Graph500A = 0.57
	Graph500B = 0.19
	Graph500C = 0.19
)

// RMATConfig parameterizes the recursive-matrix generator.
type RMATConfig struct {
	// Scale gives 2^Scale vertices.
	Scale int
	// EdgeFactor is the number of generated edges per vertex (before
	// dedup); Graph500 uses 16.
	EdgeFactor int
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). Zero values
	// default to the Graph500 constants.
	A, B, C float64
	// Undirected mirrors every edge, producing a symmetric matrix.
	Undirected bool
	// Seed fixes the random stream.
	Seed int64
}

func (c RMATConfig) withDefaults() RMATConfig {
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = Graph500A, Graph500B, Graph500C
	}
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 16
	}
	return c
}

// RMAT generates a Kronecker/RMAT graph: each edge picks one of four
// quadrants per scale level with probabilities (A, B, C, D), producing the
// power-law degree distribution with supervertices that drives the paper's
// Figure 6 analysis. Self-loops are dropped and duplicates folded.
func RMAT(cfg RMATConfig) (*graphblas.Matrix[bool], error) {
	cfg = cfg.withDefaults()
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("generate: RMAT scale %d out of range [1,30]", cfg.Scale)
	}
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || cfg.A+cfg.B+cfg.C >= 1 {
		return nil, fmt.Errorf("generate: RMAT probabilities (%g,%g,%g) invalid", cfg.A, cfg.B, cfg.C)
	}
	return pattern(1<<cfg.Scale, rmatEdges(cfg), cfg.Undirected)
}

// rmatEdges draws the edge list of a validated cfg, self-loops dropped.
func rmatEdges(cfg RMATConfig) []uint64 {
	m := cfg.EdgeFactor << cfg.Scale
	full, free := unitFloats(rand.NewSource(cfg.Seed).(rand.Source64))
	defer func() { // the filler exits before rmatEdges returns
		close(free)
		for range full {
		}
	}()
	chunk, k := <-full, 0
	// One draw p per level picks a quadrant: [0,A) neither bit, [A,A+B) the
	// column bit, [A+B,A+B+C) the row bit, the rest both. A four-way branch
	// on a random p mispredicts most of the time, so the bits are computed
	// instead: non-negative floats order like their bit patterns, and
	// (t-1-x)>>63 is 1 exactly when x >= t for patterns below 2^63.
	aBits := math.Float64bits(cfg.A)
	abBits := math.Float64bits(cfg.A + cfg.B)
	abcBits := math.Float64bits(cfg.A + cfg.B + cfg.C)
	edges := make([]uint64, 0, m)
	for e := 0; e < m; e++ {
		var r, c uint64
		for level := 0; level < cfg.Scale; level++ {
			if k == len(chunk) {
				free <- chunk
				chunk, k = <-full, 0
			}
			p := chunk[k]
			k++
			geA := (aBits - 1 - p) >> 63
			geAB := (abBits - 1 - p) >> 63
			geABC := (abcBits - 1 - p) >> 63
			r |= geAB << level
			c |= (geA ^ geAB ^ geABC) << level
		}
		if r != c { // drop self-loops
			edges = append(edges, sparse.PackEdge(uint32(r), uint32(c)))
		}
	}
	return edges
}

// unitFloats is rand.New(src).Float64's stream as Float64bits, drawn by a
// goroutine into recycled chunks the caller receives on full and hands back
// on free — drawing and the caller's work run on two cores; closing free ends
// it. 8 × 4096 values (256 KB) is the slack that outlasts hand-off wake-ups.
func unitFloats(src rand.Source64) (full <-chan []uint64, free chan<- []uint64) {
	fullc, freec := make(chan []uint64, 8), make(chan []uint64, 8)
	for i := 0; i < cap(freec); i++ {
		freec <- make([]uint64, 1<<12)
	}
	go func() {
		for buf := range freec {
			for i := range buf {
				f := 1.0
				for f == 1 { // Int63 over 2⁶³ rounds to 1 from 2⁶³−512 up: Float64 draws again
					f = float64(int64(src.Uint64()&(1<<63-1))) / (1 << 63)
				}
				buf[i] = math.Float64bits(f)
			}
			fullc <- buf // never blocks: it has room for every chunk
		}
		close(fullc)
	}()
	return fullc, freec
}

// RGG generates a random geometric graph: n points uniform in the unit
// square, edges between pairs within the given radius — the rgg_n_24
// stand-in: bounded degree, huge diameter. Always undirected.
func RGG(n int, radius float64, seed int64) (*graphblas.Matrix[bool], error) {
	if n < 1 {
		return nil, fmt.Errorf("generate: RGG size %d invalid", n)
	}
	if radius <= 0 || radius > 1 {
		return nil, fmt.Errorf("generate: RGG radius %g out of (0,1]", radius)
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	// Bucket points into radius-sized cells; only neighbouring cells can
	// hold edges.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	grid := make(map[int][]int)
	cellOf := func(i int) int {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cy*cells + cx
	}
	for i := 0; i < n; i++ {
		grid[cellOf(i)] = append(grid[cellOf(i)], i)
	}
	r2 := radius * radius
	var edges []uint64 // i<j once each; the count is only known afterwards
	for i := 0; i < n; i++ {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				for _, j := range grid[ny*cells+nx] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						edges = append(edges, sparse.PackEdge(uint32(i), uint32(j)))
					}
				}
			}
		}
	}
	return pattern(n, edges, true)
}

// Grid2D generates a rows×cols 4-neighbour mesh — the road-network
// stand-in (roadNet_CA, road_usa): degree ≤ 4, diameter rows+cols.
func Grid2D(rows, cols int) (*graphblas.Matrix[bool], error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("generate: grid %d×%d invalid", rows, cols)
	}
	n := rows * cols
	edges := make([]uint64, 0, 2*n-rows-cols)
	id := func(y, x int) uint32 { return uint32(y*cols + x) }
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				edges = append(edges, sparse.PackEdge(id(y, x), id(y, x+1)))
			}
			if y+1 < rows {
				edges = append(edges, sparse.PackEdge(id(y, x), id(y+1, x)))
			}
		}
	}
	return pattern(n, edges, true)
}

// ErdosRenyi generates G(n, p) as an undirected simple graph using the
// geometric skipping method, O(E) regardless of p.
func ErdosRenyi(n int, p float64, seed int64) (*graphblas.Matrix[bool], error) {
	if n < 1 {
		return nil, fmt.Errorf("generate: ER size %d invalid", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("generate: ER probability %g out of [0,1]", p)
	}
	rng := rand.New(rand.NewSource(seed))
	// Sized for the expected p·n(n-1)/2 edges; append covers the variance.
	edges := make([]uint64, 0, int(p*float64(n)*float64(n-1)/2))
	if p > 0 {
		logq := math.Log(1 - p)
		// Iterate potential edges (i<j) with geometric jumps.
		v, w := 1, -1
		for v < n {
			step := 1
			if p < 1 {
				step = 1 + int(math.Log(1-rng.Float64())/logq)
			}
			w += step
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				edges = append(edges, sparse.PackEdge(uint32(v), uint32(w)))
			}
		}
	}
	return pattern(n, edges, true)
}

// Path generates the path graph 0-1-…-n-1 (maximum diameter; exercises
// push-only regimes).
func Path(n int) (*graphblas.Matrix[bool], error) {
	if n < 1 {
		return nil, fmt.Errorf("generate: path size %d invalid", n)
	}
	edges := make([]uint64, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, sparse.PackEdge(uint32(i), uint32(i+1)))
	}
	return pattern(n, edges, true)
}

// Star generates a hub-and-leaves star with n vertices (vertex 0 is the
// hub) — the minimal frontier-explosion graph.
func Star(n int) (*graphblas.Matrix[bool], error) {
	if n < 1 {
		return nil, fmt.Errorf("generate: star size %d invalid", n)
	}
	edges := make([]uint64, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, sparse.PackEdge(0, uint32(i)))
	}
	return pattern(n, edges, true)
}

// WeightedCopy re-types a Boolean pattern as a float64 matrix with
// deterministic pseudo-random edge weights in [minW, maxW), symmetric for
// symmetric patterns (the SSSP experiment input). The copy shares the
// pattern's immutable Ptr and Ind; only the values are new.
func WeightedCopy(a *graphblas.Matrix[bool], minW, maxW float64, seed int64) (*graphblas.Matrix[float64], error) {
	if maxW <= minW {
		return nil, fmt.Errorf("generate: weight range [%g,%g) empty", minW, maxW)
	}
	pat := a.CSR()
	val := make([]float64, pat.NNZ())
	span := maxW - minW
	par.For(pat.Rows, 0, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			for k := pat.Ptr[i]; k < pat.Ptr[i+1]; k++ {
				lo, hi := uint32(i), pat.Ind[k]
				if lo > hi {
					lo, hi = hi, lo
				}
				// Hash the undirected edge with the seed so both
				// directions agree.
				h := uint64(lo)*0x9E3779B97F4A7C15 ^ uint64(hi)*0xC2B2AE3D27D4EB4F ^ uint64(seed)
				h ^= h >> 33
				h *= 0xFF51AFD7ED558CCD
				h ^= h >> 33
				val[k] = minW + span*float64(h%(1<<52))/float64(int64(1)<<52)
			}
		}
	})
	return graphblas.NewMatrixFromCSR(&sparse.CSR[float64]{
		Rows: pat.Rows, Cols: pat.Cols, Ptr: pat.Ptr, Ind: pat.Ind, Val: val,
	}), nil
}

// pattern builds the pattern-only adjacency matrix of an edge list; with
// mirror, the list names each undirected edge once.
func pattern(n int, edges []uint64, mirror bool) (*graphblas.Matrix[bool], error) {
	csr, err := sparse.FromEdges[bool](n, n, edges, mirror)
	if err != nil {
		return nil, err
	}
	return graphblas.NewMatrixFromCSR(csr), nil
}
