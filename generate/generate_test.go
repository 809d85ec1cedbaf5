package generate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/sparse"
)

func TestRMATDeterministicAndSimple(t *testing.T) {
	cfg := RMATConfig{Scale: 10, EdgeFactor: 8, Undirected: true, Seed: 1}
	a, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NVals() != b.NVals() {
		t.Fatalf("same seed, different graphs: %d vs %d", a.NVals(), b.NVals())
	}
	if a.NRows() != 1024 {
		t.Fatalf("NRows=%d want 1024", a.NRows())
	}
	if !a.Symmetric() {
		t.Fatal("undirected RMAT must be symmetric")
	}
	// No self-loops.
	for i := 0; i < a.NRows(); i++ {
		if _, err := a.ExtractElement(i, i); !errors.Is(err, graphblas.ErrNoValue) {
			t.Fatalf("self-loop at %d (%v)", i, err)
		}
	}
	// Different seeds differ.
	c, err := RMAT(RMATConfig{Scale: 10, EdgeFactor: 8, Undirected: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.NVals() == a.NVals() {
		// Equal counts alone are possible; compare a few rows too.
		same := true
		for i := 0; i < 20 && same; i++ {
			ai, _ := a.RowView(i)
			ci, _ := c.RowView(i)
			if len(ai) != len(ci) {
				same = false
			}
		}
		if same {
			t.Log("warning: seeds 1 and 2 produced suspiciously similar graphs")
		}
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// Power-law: the max degree must dwarf the average — the supervertex
	// phenomenon of Figure 6.
	a, err := RMAT(RMATConfig{Scale: 12, EdgeFactor: 16, Undirected: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(a.MaxDegree()) / a.AvgDegree(); ratio < 10 {
		t.Fatalf("max/avg degree = %.1f; RMAT should be heavily skewed", ratio)
	}
}

// TestSymmetryCertificates: an undirected RMAT and its weighted copy are
// certified symmetric by construction, and the walk agrees; a directed RMAT
// and its weighted copy are neither certified nor symmetric.
func TestSymmetryCertificates(t *testing.T) {
	for _, undirected := range []bool{true, false} {
		g, err := RMAT(RMATConfig{Scale: 9, EdgeFactor: 8, Undirected: undirected, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		w, err := WeightedCopy(g, 1, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name       string
			certified  bool
			walked     bool
			aliasesCSC bool
		}{
			{"pattern", g.CSR().KnownSymmetric, sparse.PatternSymmetric(g.CSR()), g.Symmetric()},
			{"weighted copy", w.CSR().KnownSymmetric, sparse.Symmetric(w.CSR()), w.Symmetric()},
		} {
			if c.certified != undirected || c.walked != undirected || c.aliasesCSC != undirected {
				t.Errorf("undirected=%v %s: certified %v, walk %v, CSC aliased %v; want all %v",
					undirected, c.name, c.certified, c.walked, c.aliasesCSC, undirected)
			}
		}
	}
}

func TestRMATErrors(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0}); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, A: 0.5, B: 0.4, C: 0.2}); err == nil {
		t.Fatal("probabilities >= 1 accepted")
	}
}

// referenceRMATEdges is RMAT's draw loop written straight against
// math/rand: one rand.Rand.Float64 per level, the quadrant picked by plain
// comparisons.
func referenceRMATEdges(cfg RMATConfig) []uint64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var edges []uint64
	for e := 0; e < cfg.EdgeFactor<<cfg.Scale; e++ {
		var r, c uint32
		for level := 0; level < cfg.Scale; level++ {
			switch p := rng.Float64(); {
			case p < cfg.A:
			case p < cfg.A+cfg.B:
				c |= 1 << level
			case p < cfg.A+cfg.B+cfg.C:
				r |= 1 << level
			default:
				r |= 1 << level
				c |= 1 << level
			}
		}
		if r != c {
			edges = append(edges, sparse.PackEdge(r, c))
		}
	}
	return edges
}

// TestRMATStreamIdentity: the two-stage draw stream and the branch-free
// quadrant bits give exactly the edge list of the plain math/rand loop, at
// every scale from 1 to 12 (the larger streams cross many chunks), over
// several seeds, edge factors and probability sets.
func TestRMATStreamIdentity(t *testing.T) {
	for scale := 1; scale <= 12; scale++ {
		for _, seed := range []int64{1, 7, 105} {
			for _, ef := range []int{1, 3, 16} {
				for _, probs := range [][3]float64{{}, {0.45, 0.22, 0.22}} {
					cfg := RMATConfig{Scale: scale, EdgeFactor: ef, A: probs[0], B: probs[1], C: probs[2], Seed: seed}.withDefaults()
					got, want := rmatEdges(cfg), referenceRMATEdges(cfg)
					if !slices.Equal(got, want) {
						t.Fatalf("%+v: %d edges from the two-stage stream, %d from math/rand, or the same count in a different order", cfg, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestLagFibContinuesMathRand: the recurrence continued outside math/rand
// gives rand.NewSource's own outputs, from the seed's first 607 across the
// hand-off to the first computed one and on for a million draws; and
// unitDraws, read in pieces that start and end on every side of a 607-output
// round, gives their low 63 bits.
func TestLagFibContinuesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -3, 101, 102, 103, 104, 105, 106, 107, 1 << 40}
	pieces := []int{1, 606, 1, 607, 608, 273, 334, 4096, 1213}
	buf := make([]uint64, 4096)
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		g := newLagFib(rand.NewSource(seed).(rand.Source64))
		for n := 0; n < 1_000_000; n += lagLen {
			if n > 0 {
				g.next()
			}
			for i, x := range g.vec {
				if want := ref.Uint64(); x != want {
					t.Fatalf("seed %d: output %d is %#x, math/rand's %#x", seed, n+i, x, want)
				}
			}
		}
		ref = rand.NewSource(seed).(rand.Source64)
		g = newLagFib(rand.NewSource(seed).(rand.Source64))
		for n, p := 0, 0; n < 100_000; p++ {
			piece := buf[:pieces[p%len(pieces)]]
			g.unitDraws(piece)
			for i, x := range piece {
				if want := ref.Uint64() & (1<<63 - 1); x != want {
					t.Fatalf("seed %d: draw %d is %#x, math/rand's %#x", seed, n+i, x, want)
				}
			}
			n += len(piece)
		}
	}
}

// TestUnitThresholdIsExact: each integer threshold is the first draw whose
// Float64 reaches the probability, for the Graph500 parameters and for
// i04's A = 0.65 with B = C = (1−A)/3 — so comparing the raw draw picks the
// quadrant the float comparison picks.
func TestUnitThresholdIsExact(t *testing.T) {
	unit := func(x uint64) float64 { return float64(int64(x)) / (1 << 63) }
	b := (1 - 0.65) / 3
	for _, p := range []float64{Graph500A, Graph500A + Graph500B, Graph500A + Graph500B + Graph500C, 0.65, 0.65 + b, 0.65 + b + b} {
		th := unitThreshold(p)
		if th == 0 || th >= 1<<63 || unit(th) < p || unit(th-1) >= p {
			t.Errorf("unitThreshold(%v) = %d: Float64 there %v, one below %v", p, th, unit(th), unit(th-1))
		}
	}
	if unitThreshold(0) != 0 {
		t.Error("every draw reaches probability 0")
	}
}

// scriptSource is a rand.Source64 replaying a fixed list of raw draws, over
// and over.
type scriptSource struct {
	draws []uint64
	k     int
}

func (s *scriptSource) Uint64() uint64 {
	x := s.draws[s.k%len(s.draws)]
	s.k++
	return x
}
func (s *scriptSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *scriptSource) Seed(int64)   {}

// TestUnitFloatsSkipsDrawsThatRoundToOne: rand.Rand.Float64 divides Int63 —
// the draw with its top bit cleared — by 2⁶³, and every draw from 2⁶³−512 up
// rounds to exactly 1, which it throws away for the next draw. The stream
// must skip exactly those, whatever the top bit. The script supplies the
// generator's first 607 outputs; 60 passes over it keep the 360 draws
// checked.
func TestUnitFloatsSkipsDrawsThatRoundToOne(t *testing.T) {
	const top = 1 << 63
	script := []uint64{top - 512, top - 1, 1<<64 - 1, top | (top - 300), top - 513, 0, top, 1 << 62, 12345, top - 1024}
	want := []float64{math.Nextafter(1, 0), 0, 0, 0.5, 12345.0 / top, math.Nextafter(1, 0)}
	full, free := unitDraws(&scriptSource{draws: script}, 1, 60*len(want))
	defer func() {
		close(free)
		for range full {
		}
	}()
	c := <-full
	ref := rand.New(&scriptSource{draws: script})
	for k, x := range c.draws {
		got := float64(int64(x)) / top
		if got != want[k%len(want)] || got != ref.Float64() {
			t.Fatalf("value %d of the stream is %v, want %v", k, got, want[k%len(want)])
		}
	}
}

// TestRMATLeavesNoGoroutine: the drawing goroutine has exited when RMAT
// returns — after a graph, on every error path — and when a consumer stops
// the stream after one chunk.
func TestRMATLeavesNoGoroutine(t *testing.T) {
	cfgs := []RMATConfig{{Scale: 10, Seed: 3}, {Scale: 0}, {Scale: 31}, {Scale: 5, A: 0.5, B: 0.4, C: 0.2}, {Scale: 5, A: -0.1, B: 0.3}}
	if _, err := RMAT(cfgs[0]); err != nil { // par starts its workers once, here
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A stopped goroutine may take a moment to be reaped after its last
		// send; one that leaked blocks forever.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), before)
			}
		}
	}
	for _, cfg := range cfgs {
		_, err := RMAT(cfg)
		settled(fmt.Sprintf("RMAT(%+v) (err %v)", cfg, err))
	}
	full, free := unitDraws(rand.NewSource(9).(rand.Source64), 1000, 1024)
	<-full
	close(free)
	for range full {
	}
	settled("a stream stopped after one chunk")
}

func TestGrid2D(t *testing.T) {
	a, err := Grid2D(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NRows() != 20 {
		t.Fatalf("NRows=%d", a.NRows())
	}
	// Interior vertex has degree 4, corner 2.
	if deg := rowDeg(a, 0); deg != 2 {
		t.Fatalf("corner degree=%d want 2", deg)
	}
	if deg := rowDeg(a, 6); deg != 4 { // (1,1)
		t.Fatalf("interior degree=%d want 4", deg)
	}
	if a.MaxDegree() != 4 {
		t.Fatalf("MaxDegree=%d want 4", a.MaxDegree())
	}
	if _, err := Grid2D(0, 5); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func rowDeg(a *graphblas.Matrix[bool], i int) int {
	ind, _ := a.RowView(i)
	return len(ind)
}

func TestRGGEdgesRespectRadius(t *testing.T) {
	a, err := RGG(500, 0.08, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Symmetric() {
		t.Fatal("RGG must be symmetric")
	}
	if a.NVals() == 0 {
		t.Fatal("RGG produced no edges")
	}
	if _, err := RGG(10, 0, 0); err == nil {
		t.Fatal("zero radius accepted")
	}
	if _, err := RGG(0, 0.1, 0); err == nil {
		t.Fatal("empty RGG accepted")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	n, p := 400, 0.05
	a, err := ErdosRenyi(n, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	expected := p * float64(n) * float64(n-1) // both directions
	if got := float64(a.NVals()); math.Abs(got-expected) > expected/3 {
		t.Fatalf("ER edges=%g expected ~%g", got, expected)
	}
	empty, err := ErdosRenyi(10, 0, 0)
	if err != nil || empty.NVals() != 0 {
		t.Fatalf("ER p=0: %v nnz=%d", err, empty.NVals())
	}
	if _, err := ErdosRenyi(5, 1.5, 0); err == nil {
		t.Fatal("p>1 accepted")
	}
}

func TestPathAndStar(t *testing.T) {
	p, err := Path(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.NVals() != 18 {
		t.Fatalf("path nnz=%d want 18", p.NVals())
	}
	s, err := Star(10)
	if err != nil {
		t.Fatal(err)
	}
	if rowDeg(s, 0) != 9 {
		t.Fatalf("hub degree=%d want 9", rowDeg(s, 0))
	}
	if _, err := Path(0); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := Star(0); err == nil {
		t.Fatal("empty star accepted")
	}
}

func TestWeightedCopySymmetricWeights(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 8, EdgeFactor: 4, Undirected: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	w, err := WeightedCopy(g, 1, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.NVals() != g.NVals() {
		t.Fatalf("weighted copy changed nnz: %d vs %d", w.NVals(), g.NVals())
	}
	// Spot-check symmetry of weights.
	checked := 0
	csr := w.CSR()
	for i := 0; i < w.NRows() && checked < 200; i++ {
		ind, val := csr.RowSpan(i)
		for k, j := range ind {
			back, err := w.ExtractElement(int(j), i)
			if err != nil {
				t.Fatalf("missing reverse edge (%d,%d)", j, i)
			}
			if back != val[k] {
				t.Fatalf("asymmetric weight (%d,%d): %g vs %g", i, j, val[k], back)
			}
			if val[k] < 1 || val[k] >= 5 {
				t.Fatalf("weight %g outside [1,5)", val[k])
			}
			checked++
		}
	}
	if _, err := WeightedCopy(g, 5, 5, 0); err == nil {
		t.Fatal("empty weight range accepted")
	}
}

func TestStatsPathDiameter(t *testing.T) {
	p, err := Path(50)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stats("path", p, "m", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Diameter != 49 {
		t.Fatalf("path diameter=%d want 49", st.Diameter)
	}
	if st.Vertices != 50 || st.Edges != 98 || st.MaxDegree != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.AvgDegree < 1.9 || st.AvgDegree > 2 {
		t.Fatalf("avg degree %g", st.AvgDegree)
	}
}

func TestStatsGridDiameter(t *testing.T) {
	g, err := Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stats("grid", g, "gm", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Diameter != 18 { // (10-1)+(10-1)
		t.Fatalf("grid diameter=%d want 18", st.Diameter)
	}
}
