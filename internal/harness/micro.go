package harness

import (
	"fmt"
	"math/rand"
	"time"

	"pushpull/graphblas"
	"pushpull/internal/core"
	"pushpull/internal/perf"
	"pushpull/internal/sparse"
)

// MicroCost is one measurement of each of the four matvec variants.
type MicroCost struct {
	RowNoMask, RowMask, ColNoMask, ColMask float64
}

// MicroPoint is one sweep sample: the x-axis value (nnz of the swept
// vector/mask) and, per variant, the work the kernel counted (Table 1) and
// its wall time (Figure 2).
type MicroPoint struct {
	NNZ      int
	Accesses MicroCost // core.Counter.Total of one call
	MS       MicroCost
}

// MicroReport is the Table 1 / Figure 2 output: sweep samples plus the
// classification derived from the endpoints.
type MicroReport struct {
	// Matrix identifies the graph and its dimensions.
	Matrix string
	Points []MicroPoint
	// Growth[variant] = accesses(max sweep)/accesses(min sweep), the
	// empirical scaling class: ~1 means flat (O(dM)); large means the cost
	// tracks the swept quantity.
	Growth map[string]float64
}

// microSR is the generic arithmetic semiring the microbenchmarks sweep
// (matching the paper's use of plain matvec rather than BFS here).
func microSR() core.SR[float64] {
	return core.SR[float64]{
		Add: func(a, b float64) float64 { return a + b },
		Id:  0,
		Mul: func(a, b float64) float64 { return a * b },
		One: 1,
	}
}

// buildMicroMatrix materializes the kron stand-in as float64 CSR/CSC: the
// generic semiring multiplies matrix values, so the pattern gets ones.
func buildMicroMatrix(scale int) (*sparse.CSR[float64], *sparse.CSR[float64], int, error) {
	g, err := KronDataset(scale).Build()
	if err != nil {
		return nil, nil, 0, err
	}
	m := graphblas.ValuedAs(g, 1.0)
	return m.CSR(), m.CSC(), g.NRows(), nil
}

// randomPick fills a dense float vector and its sparse view with k random
// distinct nonzeroes.
func randomPick(rng *rand.Rand, perm []uint32, k int) (ind []uint32, val []float64) {
	n := len(perm)
	if k > n {
		k = n
	}
	// Partial Fisher-Yates over the shared permutation buffer.
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	ind = append([]uint32(nil), perm[:k]...)
	val = make([]float64, k)
	for i := range val {
		val[i] = 1
	}
	return ind, val
}

// MicroSweep runs the four-variant sweep of Table 1 and Figure 2 over the
// kernels that serve queries, on one pinned workspace: each variant's first
// call at a point warms the buffers and gives the work the kernel counted,
// the next three its wall time. The sweep follows the paper's
// microbenchmark setup: random input vectors and masks, the column-based
// masked variant's mask at ⅔·nnz(f), row-based unmasked measured against a
// bitset input with the row-masked variant sweeping nnz(m) over a full one.
func MicroSweep(scale, points int) (*MicroReport, error) {
	if points < 2 {
		points = 8
	}
	csr, csc, n, err := buildMicroMatrix(scale)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	sr := microSR()
	rep := &MicroReport{
		Matrix: fmt.Sprintf("kron scale=%d (%d vertices, %d edges)", scale, n, csr.NNZ()),
		Growth: map[string]float64{},
	}

	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	denseVal := make([]float64, n)
	uWords := make([]uint64, core.BitsetWords(n))
	w := make([]float64, n)
	wp := make([]bool, n)
	fullVal := make([]float64, n)
	for i := range fullVal {
		fullVal[i] = 1
	}

	ws := core.NewWorkspace(n, n)
	opts := core.Opts{Ws: ws}
	measure := func(run func()) (accesses, millis float64) {
		ws.TakeCounts()
		run()
		c := ws.TakeCounts()
		return float64(c.Total()), ms(perf.TimeN(0, 3, run))
	}
	for p := 0; p < points; p++ {
		frac := float64(p+1) / float64(points)
		k := int(frac * float64(n))
		if k < 1 {
			k = 1
		}
		pt := MicroPoint{NNZ: k}

		// Shared random supports for this sweep point.
		ind, val := randomPick(rng, perm, k)
		core.BitsetZero(uWords)
		core.BitsetScatter(uWords, ind)
		for i, idx := range ind {
			denseVal[idx] = val[i]
		}
		maskWords := make([]uint64, core.BitsetWords(n))
		maskList := make([]uint32, 0, k)
		mInd, _ := randomPick(rng, perm, k)
		core.BitsetScatter(maskWords, mInd)
		for i := 0; i < n; i++ {
			if core.BitsetGet(maskWords, i) {
				maskList = append(maskList, uint32(i))
			}
		}
		colMaskWords := make([]uint64, core.BitsetWords(n))
		cmInd, _ := randomPick(rng, perm, 2*k/3+1)
		core.BitsetScatter(colMaskWords, cmInd)

		uView := core.BitsetVec(denseVal, uWords, k)
		fullView := core.DenseVec(fullVal)
		sparseView := core.SparseVec(n, ind, val)
		pt.Accesses.RowNoMask, pt.MS.RowNoMask = measure(func() {
			core.RowMxv(w, wp, csr, uView, sr, opts)
		})
		pt.Accesses.RowMask, pt.MS.RowMask = measure(func() {
			core.RowMaskedMxv(w, wp, csr, fullView,
				core.MaskView{Words: maskWords, List: maskList}, sr, opts)
		})
		pt.Accesses.ColNoMask, pt.MS.ColNoMask = measure(func() {
			core.ColMxv(csc, sparseView, sr, opts)
		})
		pt.Accesses.ColMask, pt.MS.ColMask = measure(func() {
			core.ColMaskedMxv(csc, sparseView, core.MaskView{Words: colMaskWords}, sr, opts)
		})
		rep.Points = append(rep.Points, pt)
	}

	first, last := rep.Points[0].Accesses, rep.Points[len(rep.Points)-1].Accesses
	ratio := func(a, b float64) float64 {
		if a <= 0 {
			return 0
		}
		return b / a
	}
	rep.Growth["row-nomask"] = ratio(first.RowNoMask, last.RowNoMask)
	rep.Growth["row-mask"] = ratio(first.RowMask, last.RowMask)
	rep.Growth["col-nomask"] = ratio(first.ColNoMask, last.ColNoMask)
	rep.Growth["col-mask"] = ratio(first.ColMask, last.ColMask)
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
