package algorithms_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

func goldenGraphs(t *testing.T) map[string]*graphblas.Matrix[bool] {
	t.Helper()
	kron, err := generate.RMAT(generate.RMATConfig{Scale: 12, EdgeFactor: 16, Undirected: true, Seed: 105})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := generate.RMAT(generate.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var edges [][2]int
	for i := 0; i < 40; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 40}, [2]int{i, (i*7 + 3) % 40})
	}
	for i := 40; i < 99; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	edges = append(edges, [2]int{45, 90}, [2]int{50, 70})
	return map[string]*graphblas.Matrix[bool]{"kron12": kron, "rmat10dir": dir, "twocomp": algorithms.UndirectedFromEdges(100, edges)}
}

func hashU64s(f func(yield func(uint64))) string {
	h := fnv.New64a()
	var b [8]byte
	f(func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) })
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenHashes(t *testing.T, a *graphblas.Matrix[bool]) map[string]string {
	t.Helper()
	out := map[string]string{}
	src := 3
	p, err := algorithms.ParentBFS(a, src)
	if err != nil {
		t.Fatal(err)
	}
	out["parentbfs"] = hashU64s(func(y func(uint64)) {
		for _, v := range p {
			y(uint64(v))
		}
	})
	l, err := algorithms.ConnectedComponents(a)
	if err != nil {
		t.Fatal(err)
	}
	out["cc"] = hashU64s(func(y func(uint64)) {
		for _, v := range l {
			y(uint64(v))
		}
	})
	pr, err := algorithms.PageRank(a, algorithms.PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out["pagerank"] = hashU64s(func(y func(uint64)) {
		y(uint64(pr.Iterations))
		for _, v := range pr.Ranks {
			y(math.Float64bits(v))
		}
	})
	apr, err := algorithms.PageRank(a, algorithms.PageRankOptions{AdaptiveTol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	out["adaptive_pagerank"] = hashU64s(func(y func(uint64)) {
		y(uint64(apr.Iterations))
		y(uint64(apr.MaskedMatvecRows))
		for _, v := range apr.Ranks {
			y(math.Float64bits(v))
		}
	})
	bc, err := algorithms.BetweennessCentrality(a, []int{3, 17, 64}, algorithms.BCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out["bc"] = hashU64s(func(y func(uint64)) {
		for _, v := range bc {
			y(math.Float64bits(v))
		}
	})
	w, err := generate.WeightedCopy(a, 1, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []algorithms.IterStats
	dist, err := algorithms.SSSP(w, src, algorithms.SSSPOptions{Trace: func(s algorithms.IterStats) { rounds = append(rounds, s) }})
	if err != nil {
		t.Fatal(err)
	}
	out["sssp"] = hashU64s(func(y func(uint64)) {
		for _, v := range dist {
			y(math.Float64bits(v))
		}
	})
	out["sssp_rounds"] = hashU64s(func(y func(uint64)) {
		for _, s := range rounds {
			y(uint64(s.Iteration))
			y(uint64(s.Direction))
			y(uint64(s.FrontierNNZ))
		}
	})
	n := a.NRows()
	sources := make([]int, 64)
	for s := range sources {
		sources[s] = (s*37 + 3) % n
	}
	depths, err := algorithms.MultiBFS(a, sources)
	if err != nil {
		t.Fatal(err)
	}
	out["multibfs"] = hashU64s(func(y func(uint64)) {
		for _, d := range depths {
			for _, v := range d {
				y(uint64(uint32(v)))
			}
		}
	})
	mis, err := algorithms.MIS(a, 42)
	if err != nil {
		t.Fatal(err)
	}
	out["mis"] = hashU64s(func(y func(uint64)) {
		for _, v := range mis {
			if v {
				y(1)
			} else {
				y(0)
			}
		}
	})
	return out
}

// goldenAtParent holds FNV-1a hashes of every algorithm's full output,
// recorded at the commit before ParentBFS, CC, PageRank, BC and MIS moved
// from per-query valued copies of the matrix onto second-form semirings
// over PatternAs views. The rewrite promised bit-identical results (same
// products, same per-row summation order); this is the proof, and the
// tripwire for any later kernel change that reorders a fold. The sssp,
// sssp_rounds (round, direction and active count of each relaxation round
// under the unit model) and multibfs rows were recorded before SSSP, CC
// and MultiBFS folded their value updates into the Select predicate.
var goldenAtParent = map[string]string{
	"kron12/adaptive_pagerank":    "dcf761ee0935a61b",
	"kron12/bc":                   "df0b135e4d8c90b1",
	"kron12/cc":                   "772294ab6678c8a3",
	"kron12/mis":                  "e6223feea0b358e4",
	"kron12/multibfs":             "c84ead8d0ce55116",
	"kron12/pagerank":             "aca2fbce6f612e50",
	"kron12/parentbfs":            "97e2b89915b53b83",
	"kron12/sssp":                 "1800800bf5681580",
	"kron12/sssp_rounds":          "3ca40b9915b16e33",
	"rmat10dir/adaptive_pagerank": "f4815a83b2122c5a",
	"rmat10dir/bc":                "23594b692d3a3519",
	"rmat10dir/cc":                "b50f68cc2949a336",
	"rmat10dir/mis":               "b20836c852bb7a64",
	"rmat10dir/multibfs":          "64ca1e4f58126411",
	"rmat10dir/pagerank":          "e303be769fdee6f5",
	"rmat10dir/parentbfs":         "a11f9fab789db67a",
	"rmat10dir/sssp":              "2646620b71a1e608",
	"rmat10dir/sssp_rounds":       "a2546d3d6a38b40a",
	"twocomp/adaptive_pagerank":   "f52dd3906acc54af",
	"twocomp/bc":                  "2928409b4ba98a49",
	"twocomp/cc":                  "6a7458cee6189025",
	"twocomp/mis":                 "ff1b51abaceef325",
	"twocomp/multibfs":            "6ce8aa59cab2509a",
	"twocomp/pagerank":            "1ecac84f4a306e0f",
	"twocomp/parentbfs":           "5517460aba1dfaa4",
	"twocomp/sssp":                "b644aed1e7fbf371",
	"twocomp/sssp_rounds":         "d68aaf35f3652549",
}

func TestResultsBitIdenticalToValuedCopies(t *testing.T) {
	for name, g := range goldenGraphs(t) {
		for alg, got := range goldenHashes(t, g) {
			// Floating-point goldens were recorded on amd64, which never
			// fuses a·b+c; architectures that do may round differently.
			if float := strings.Contains(alg, "pagerank") || alg == "bc"; float && runtime.GOARCH != "amd64" {
				continue
			}
			if want := goldenAtParent[name+"/"+alg]; got != want {
				t.Errorf("%s %s: output hash %s, parent produced %s", name, alg, got, want)
			}
		}
	}
}
