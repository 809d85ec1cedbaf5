// Package mmio reads and writes Matrix Market coordinate files — the
// interchange format of the UF/SuiteSparse collection the paper's real
// datasets come from. Pattern and real fields, general and symmetric
// symmetry are supported; symmetric files are expanded to both triangles
// on read, matching the paper's "converted to undirected" preparation.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pushpull/graphblas"
	"pushpull/internal/sparse"
)

// WritePattern writes a Boolean matrix in MatrixMarket coordinate pattern
// format. Symmetric matrices are written as their lower triangle with the
// symmetric header.
func WritePattern(w io.Writer, a *graphblas.Matrix[bool]) error {
	bw := bufio.NewWriter(w)
	sym := a.Symmetric()
	header := "general"
	if sym {
		header = "symmetric"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern %s\n", header); err != nil {
		return err
	}
	csr := a.CSR()
	count := 0
	for i := 0; i < csr.Rows; i++ {
		ind, _ := csr.RowSpan(i)
		for _, j := range ind {
			if !sym || int(j) <= i {
				count++
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.NRows(), a.NCols(), count); err != nil {
		return err
	}
	for i := 0; i < csr.Rows; i++ {
		ind, _ := csr.RowSpan(i)
		for _, j := range ind {
			if !sym || int(j) <= i {
				if _, err := fmt.Fprintf(bw, "%d %d\n", i+1, j+1); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadPattern parses a MatrixMarket coordinate file into a Boolean matrix.
// Real/integer files are accepted with values treated as presence;
// symmetric files are mirrored.
func ReadPattern(r io.Reader) (*graphblas.Matrix[bool], error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	head := strings.Fields(strings.ToLower(sc.Text()))
	if len(head) < 5 || head[0] != "%%matrixmarket" || head[1] != "matrix" || head[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported header %q", sc.Text())
	}
	field, symmetry := head[3], head[4]
	switch field {
	case "pattern", "real", "integer":
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", field)
	}
	var symmetric bool
	switch symmetry {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", symmetry)
	}
	// Skip comments, read the size line.
	var nr, nc, nnz int
	haveSize := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d %d", &nr, &nc, &nnz); err != nil {
			return nil, fmt.Errorf("mmio: bad size line %q: %v", line, err)
		}
		haveSize = true
		break
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	if !haveSize {
		return nil, fmt.Errorf("mmio: truncated input: no size line after header")
	}
	if nr <= 0 || nc <= 0 {
		return nil, fmt.Errorf("mmio: invalid dimensions %d×%d (rows and cols must be positive)", nr, nc)
	}
	if symmetric && nr != nc {
		return nil, fmt.Errorf("mmio: symmetric header on a non-square %d×%d matrix", nr, nc)
	}
	const maxDim = int64(1) << 32 // indices are stored as uint32
	if int64(nr) > maxDim || int64(nc) > maxDim {
		return nil, fmt.Errorf("mmio: dimensions %d×%d exceed the uint32 index limit", nr, nc)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("mmio: negative entry count %d", nnz)
	}
	if capacity := int64(nr) * int64(nc); int64(nnz) > capacity {
		return nil, fmt.Errorf("mmio: entry count %d exceeds %d×%d capacity", nnz, nr, nc)
	}
	// Cap the preallocation: a lying header ("declare 4e9 entries, supply
	// three lines") must fail with a truncation error, not an OOM.
	prealloc := nnz
	if prealloc > 1<<24 {
		prealloc = 1 << 24
	}
	edges := make([]uint64, 0, prealloc)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("mmio: bad entry %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad row in %q", line)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: bad col in %q", line)
		}
		if i < 1 || i > nr || j < 1 || j > nc {
			return nil, fmt.Errorf("mmio: entry (%d,%d) outside %d×%d", i, j, nr, nc)
		}
		edges = append(edges, sparse.PackEdge(uint32(i-1), uint32(j-1)))
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	if read < nnz {
		return nil, fmt.Errorf("mmio: truncated input: header declares %d entries, found %d", nnz, read)
	}
	// The builder mirrors a symmetric file's stored triangle itself.
	csr, err := sparse.FromEdges[bool](nr, nc, edges, symmetric)
	if err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	return graphblas.NewMatrixFromCSR(csr), nil
}

// WritePatternFile writes a pattern matrix to the named file.
func WritePatternFile(path string, a *graphblas.Matrix[bool]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePattern(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPatternFile reads a pattern matrix from the named file.
func ReadPatternFile(path string) (*graphblas.Matrix[bool], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPattern(f)
}
