package generate_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/harness"
)

// structureHash is FNV-1a-64 over Ptr (little-endian u64 each) then Ind
// (little-endian u32 each): two graphs hash equal iff their CSRs are
// byte-identical.
func structureHash(m *graphblas.Matrix[bool]) string {
	csr := m.CSR()
	h := fnv.New64a()
	var b [8]byte
	for _, p := range csr.Ptr {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	for _, j := range csr.Ind {
		binary.LittleEndian.PutUint32(b[:4], j)
		h.Write(b[:4])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// valueHash is FNV-1a-64 over the IEEE-754 bits of every stored value.
func valueHash(m *graphblas.Matrix[float64]) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range m.CSR().Val {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func dataset(scale int, name string) func() (*graphblas.Matrix[bool], error) {
	return func() (*graphblas.Matrix[bool], error) {
		d, err := harness.FindDataset(scale, name)
		if err != nil {
			return nil, err
		}
		return d.Build()
	}
}

// TestGoldenGraphs pins "same seed ⇒ same graph": every hash below was
// computed at the commit before the edge-list builder replaced the COO
// radix path, so any drift in the random stream, the self-loop/duplicate
// handling or the row order shows up as a mismatch, not as a silently
// different benchmark input. kron:17 is the benchmark's big graph: 35.7M
// draws, the longest stretch of the continued random stream any graph
// reads; it is skipped under -short and under the race detector.
func TestGoldenGraphs(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graphblas.Matrix[bool], error)
		nnz   int
		hash  string
	}{
		{"kron:17", dataset(17, "kron"), 3727828, "b8dfa1701d11ac53"},
		{"kron:12", dataset(12, "kron"), 96944, "6c73bb45fb764b0e"},
		{"kron:14", dataset(14, "kron"), 426110, "8a07ecd5bb70a26d"},
		{"roadnet:16", dataset(16, "roadnet"), 261120, "329b3986b49571c3"},
		{"i04:10", dataset(10, "i04"), 44664, "4ba0a0fb50e8353f"},
		{"rgg:10", dataset(10, "rgg"), 29068, "d2f20b573b4d82fb"},
		{"rmat-directed", func() (*graphblas.Matrix[bool], error) {
			return generate.RMAT(generate.RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 7})
		}, 13896, "59ab739827fec9e6"},
		{"erdos-renyi", func() (*graphblas.Matrix[bool], error) {
			return generate.ErdosRenyi(3000, 0.002, 11)
		}, 17948, "05ec84224dadd786"},
		{"path", func() (*graphblas.Matrix[bool], error) { return generate.Path(1000) }, 1998, "6de9f35afdf343fa"},
		{"star", func() (*graphblas.Matrix[bool], error) { return generate.Star(1000) }, 1998, "664da03d5d700279"},
	}
	for _, c := range cases {
		if c.name == "kron:17" && (testing.Short() || raceEnabled) {
			continue
		}
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := structureHash(m); m.NVals() != c.nnz || got != c.hash {
			t.Errorf("%s: nnz %d hash %s, want nnz %d hash %s", c.name, m.NVals(), got, c.nnz, c.hash)
		}
	}
}

func TestGoldenWeightedCopy(t *testing.T) {
	g, err := dataset(12, "kron")()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := generate.WeightedCopy(g, 1, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	const want = "da1ef8483e77cd39"
	if got := valueHash(wm); wm.NVals() != g.NVals() || got != want {
		t.Errorf("WeightedCopy(kron:12, 1, 10, 99): nnz %d value hash %s, want nnz %d hash %s",
			wm.NVals(), got, g.NVals(), want)
	}
	if !wm.Symmetric() {
		t.Error("weighted copy of a symmetric pattern must be symmetric")
	}
}
