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
//
// The graph is a function of the configuration alone: draw e·Scale+l of
// rand.New(rand.NewSource(Seed)).Float64 picks bit l of edge e's row and
// column, by where it falls against A, A+B and A+B+C. rand.NewSource is an
// additive lagged-Fibonacci generator, x_n = x_{n−607} + x_{n−273} (mod 2⁶⁴):
// RMAT takes its first 607 outputs and continues the recurrence itself, with
// no call per draw, keeping Float64's rule that an output whose low 63 bits
// round to 1 is skipped.
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

// chunkEdges is how many edges one chunk of draws makes: 256 edges of up to
// 30 draws, 60 KB at most, so a chunk stays in cache from draw to use and the
// buffers in flight stay small beside the edge list.
const chunkEdges = 256

// rmatEdges draws the edge list of a validated cfg, self-loops dropped. A
// goroutine draws the stream into chunks of chunkEdges·Scale draws; par
// workers turn each chunk into its stretch of the list, and one in-order pass
// drops the self-loops.
func rmatEdges(cfg RMATConfig) []uint64 {
	m := cfg.EdgeFactor << cfg.Scale
	chunks := (m + chunkEdges - 1) / chunkEdges
	full, free := unitDraws(rand.NewSource(cfg.Seed).(rand.Source64), chunks, chunkEdges*cfg.Scale)
	defer func() { // the drawing goroutine exits before rmatEdges returns
		close(free)
		for range full {
		}
	}()
	t := [3]uint64{unitThreshold(cfg.A), unitThreshold(cfg.A + cfg.B), unitThreshold(cfg.A + cfg.B + cfg.C)}
	edges := make([]uint64, m)
	par.For(chunks, 1, func(lo, hi int) {
		for ; lo < hi; lo++ {
			c := <-full
			quadrants(edges[c.seq*chunkEdges:min(m, (c.seq+1)*chunkEdges)], c.draws, cfg.Scale, t)
			free <- c.draws
		}
	})
	kept := edges[:0]
	for _, e := range edges {
		if uint32(e>>32) != uint32(e) {
			kept = append(kept, e)
		}
	}
	return kept
}

// quadrants makes edge e of out from draws[e·scale:(e+1)·scale]. One draw per
// level picks a quadrant: [0,A) neither bit, [A,A+B) the column bit,
// [A+B,A+B+C) the row bit, the rest both. A four-way branch on a random draw
// mispredicts most of the time, so the bits are computed instead: (t−1−x)>>63
// is 1 exactly when x ≥ t, for x < 2⁶³ and t ≤ 2⁶³. Levels run from the last
// to the first, so every bit enters at the bottom of one word holding the row
// above bit 32 and the column below it.
func quadrants(out, draws []uint64, scale int, t [3]uint64) {
	a, ab, abc := t[0]-1, t[1]-1, t[2]-1
	for e := range out {
		d := draws[e*scale : (e+1)*scale]
		var rc uint64
		for l := len(d) - 1; l >= 0; l-- {
			x := d[l]
			rc = rc*2 + (ab-x)>>63<<32 + ((a-x)^(ab-x)^(abc-x))>>63
		}
		out[e] = rc
	}
}

// unitThreshold is the least x ≤ 2⁶³ for which Float64's
// float64(x)/2⁶³ ≥ p, for p ≤ 1: a draw x falls below p exactly when x is
// below it, since the conversion never decreases.
func unitThreshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// drawChunk is chunk seq of the stream.
type drawChunk struct {
	seq   int
	draws []uint64
}

// unitDraws is rand.New(src).Float64's stream before the division — the low
// 63 bits of each output, an output that would round to 1 skipped — drawn by
// a goroutine in chunks of size draws, numbered from 0: it sends the first
// `chunks` on full and closes it, taking each buffer from free; closing free
// ends it early. The buffers are recycled, so the ones in flight are all the
// stream allocates. A hand-off that finds no chunk (or no free buffer) parks a
// goroutine, and waking it costs more than drawing a chunk, so slack sets the
// speed: 16 buffers, but no more than an eighth of the edge list's bytes.
func unitDraws(src rand.Source64, chunks, size int) (full <-chan drawChunk, free chan<- []uint64) {
	bufs := min(chunks, 16, max(2, chunks*chunkEdges/(8*size)))
	fullc, freec := make(chan drawChunk, bufs), make(chan []uint64, bufs)
	for i := 0; i < bufs; i++ {
		freec <- make([]uint64, size)
	}
	go func() {
		defer close(fullc)
		g := newLagFib(src)
		for seq := 0; seq < chunks; seq++ {
			buf, ok := <-freec
			if !ok {
				return
			}
			g.unitDraws(buf)
			fullc <- drawChunk{seq, buf} // never blocks: it has room for every buffer
		}
	}()
	return fullc, freec
}

// lagLen and lagTap are the lags of math/rand's generator.
const lagLen, lagTap = 607, 273

// lagFib continues a rand.NewSource generator without calling it: vec holds
// outputs n … n+606 for some n that is a multiple of 607, of which the first
// k have been read.
type lagFib struct {
	vec [lagLen]uint64
	k   int
}

// newLagFib takes src's next 607 outputs; for a fresh rand.NewSource they are
// the recurrence's seed.
func newLagFib(src rand.Source64) *lagFib {
	g := &lagFib{}
	for i := range g.vec {
		g.vec[i] = src.Uint64()
	}
	return g
}

// unitDraws fills buf with the low 63 bits of the next outputs, skipping each
// that Float64 would round to 1: from 2⁶³−512 up the division does, and
// Float64 draws again.
func (g *lagFib) unitDraws(buf []uint64) {
	for k := 0; k < len(buf); {
		if g.k == lagLen {
			g.next()
		}
		out := g.vec[g.k:min(lagLen, g.k+len(buf)-k)]
		g.k += len(out)
		for _, x := range out { // k advances at most once per output
			x &= 1<<63 - 1
			buf[k] = x
			k += int((x - (1<<63 - 512)) >> 63) // 1 when x < 2⁶³−512
		}
	}
}

// next replaces vec by the following 607 outputs: x_n = x_{n−607} + x_{n−273},
// where x_{n−273} is still in vec for the first 273 and already replaced for
// the rest.
func (g *lagFib) next() {
	v := &g.vec
	for i := 0; i < lagTap; i++ {
		v[i] += v[i+lagLen-lagTap]
	}
	for i := lagTap; i < lagLen; i++ {
		v[i] += v[i-lagTap]
	}
	g.k = 0
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
// symmetric patterns (the SSSP experiment input) — so a symmetric pattern's
// copy is certified symmetric and not walked again. The copy shares the
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
		KnownSymmetric: a.Symmetric(), // the hash is symmetric in the endpoints
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
