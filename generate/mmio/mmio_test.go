package mmio

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"pushpull/generate"
	"pushpull/graphblas"
)

func TestRoundTripSymmetric(t *testing.T) {
	g, err := generate.RMAT(generate.RMATConfig{Scale: 8, EdgeFactor: 4, Undirected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePattern(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "symmetric") {
		t.Fatal("symmetric header missing")
	}
	back, err := ReadPattern(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, g, back)
}

func TestRoundTripGeneral(t *testing.T) {
	m, err := graphblas.NewMatrixFromCOO(3, 4, []uint32{0, 2, 1}, []uint32{3, 0, 1}, []bool{true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePattern(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "general") {
		t.Fatal("general header missing")
	}
	back, err := ReadPattern(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, m, back)
}

func assertSameMatrix(t *testing.T, a, b *graphblas.Matrix[bool]) {
	t.Helper()
	if a.NRows() != b.NRows() || a.NCols() != b.NCols() || a.NVals() != b.NVals() {
		t.Fatalf("shape mismatch: %dx%d/%d vs %dx%d/%d",
			a.NRows(), a.NCols(), a.NVals(), b.NRows(), b.NCols(), b.NVals())
	}
	ac, bc := a.CSR(), b.CSR()
	for i := range ac.Ptr {
		if ac.Ptr[i] != bc.Ptr[i] {
			t.Fatalf("Ptr differs at %d", i)
		}
	}
	for i := range ac.Ind {
		if ac.Ind[i] != bc.Ind[i] {
			t.Fatalf("Ind differs at %d", i)
		}
	}
}

func TestReadRealField(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 2
1 2 1.5
3 1 -2.0
`
	m, err := ReadPattern(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NVals() != 2 {
		t.Fatalf("nnz=%d want 2", m.NVals())
	}
	// The real field's values are dropped: the entry is present, valueless.
	if _, err := m.ExtractElement(0, 1); !errors.Is(err, graphblas.ErrInvalidValue) {
		t.Fatalf("entry (0,1): %v, want present and pattern-only", err)
	}
	if _, err := m.ExtractElement(1, 0); !errors.Is(err, graphblas.ErrNoValue) {
		t.Fatalf("entry (1,0): %v, want absent", err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "%%MatrixMarket vector coordinate real general\n1 1 0\n",
		"bad field":   "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symm":    "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"short file":  "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n",
		"bad entry":   "%%MatrixMarket matrix coordinate pattern general\n3 3 1\nxx yy\n",
		"out of rng":  "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n",
		"bad size ln": "%%MatrixMarket matrix coordinate pattern general\nnope\n",
	}
	for name, in := range cases {
		if _, err := ReadPattern(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g, err := generate.Grid2D(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.mtx")
	if err := WritePatternFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPatternFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, g, back)
	if _, err := ReadPatternFile(filepath.Join(t.TempDir(), "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}
