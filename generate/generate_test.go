package generate

import (
	"errors"
	"math"
	"testing"

	"pushpull/graphblas"
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

func TestRMATErrors(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0}); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, A: 0.5, B: 0.4, C: 0.2}); err == nil {
		t.Fatal("probabilities >= 1 accepted")
	}
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
