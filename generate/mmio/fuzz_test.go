package mmio

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"pushpull/internal/sparse"
)

// bigNumber matches a number of a hundred thousand or more. The reader
// accepts dimensions up to 2³², and the builder keeps a counter per row and
// column, so an input declaring a large one costs its size in memory, not a
// bug; the fuzzer keeps to inputs that build in a few megabytes.
var bigNumber = regexp.MustCompile(`[0-9]{6}`)

// FuzzReadPattern: whatever the bytes, ReadPattern returns an error or a
// valid matrix and never panics. A symmetric header yields a symmetric matrix
// serving its CSR as its CSC; with a general header the CSR doubles as the
// CSC exactly when the symmetry walk finds the pattern symmetric. The seed
// corpus is in testdata/fuzz/FuzzReadPattern.
func FuzzReadPattern(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if bigNumber.Match(in) {
			t.Skip("declares a dimension or count of a hundred thousand or more")
		}
		m, err := ReadPattern(bytes.NewReader(in))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with a matrix", err)
			}
			return
		}
		if m == nil {
			t.Fatal("no matrix and no error")
		}
		csr := m.CSR()
		if err := sparse.Validate(csr); err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(in, []byte("\n"))
		walk := sparse.PatternSymmetric(csr)
		switch symmetry := strings.Fields(strings.ToLower(string(line)))[4]; symmetry {
		case "symmetric":
			if !m.Symmetric() || !walk || m.CSC() != csr {
				t.Fatalf("symmetric header: Symmetric %v, walk %v", m.Symmetric(), walk)
			}
		case "general":
			if m.Symmetric() != walk {
				t.Fatalf("general header: Symmetric %v, walk %v", m.Symmetric(), walk)
			}
		default:
			t.Fatalf("accepted symmetry %q", symmetry)
		}
	})
}
