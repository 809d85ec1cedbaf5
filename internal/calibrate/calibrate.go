// Package calibrate fits the direction planner's per-machine cost
// coefficients (core.CostModel) from short microbenchmarks. The planner's
// unit model charges one RAM access for every gathered edge, scanned row
// and scattered output; this package measures what each term actually
// costs on the host — pull scans over dense inputs, masked pulls over
// word-packed inputs under word masks, push gather with the radix sort
// and with the sort-free scatter (priced with the pass that packs its
// presence bytes into words) — across synthetic R-MAT-ish and uniform
// graphs at several frontier densities, and least-squares-fits the
// per-term nanosecond coefficients to the measured wall-clocks. Presence
// is one bit per position, so there is one probe rate for every input
// that is not dense. The fitted
// model round-trips through a host-keyed JSON profile (PPTUNE_<os>_<arch>
// .json) that `ppbench -tune` loads for every experiment.
package calibrate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pushpull/generate"
	"pushpull/internal/core"
	"pushpull/internal/perf"
	"pushpull/internal/sparse"
)

// Options configures a calibration run.
type Options struct {
	// Scale is log₂ of the calibration graphs' vertex count (default 12).
	// Bigger graphs push the working set past cache and the coefficients
	// toward their memory-bound values; smaller runs finish faster.
	Scale int
	// Quick trades fit quality for speed: fewer frontier densities and
	// timing repetitions (the CI smoke configuration).
	Quick bool
	// Seed fixes the synthetic graphs and frontiers (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Term indices of an observation's feature vector, one per CostModel
// coefficient.
const (
	termSetup = iota
	termRow
	termProbeWord
	termProbeDense
	termGather
	termSort
	termScatter
	termClear
	numTerms
)

// Observation is one timed kernel invocation: the model's work-term
// counts and the measured nanoseconds. Exported so tests can fit
// synthetic observation sets without timing anything.
type Observation struct {
	// Bench names the kernel variant (trace/debug surface).
	Bench string
	// Feats holds the work-term counts in term-index order.
	Feats [numTerms]float64
	// Ns is the measured wall-clock in nanoseconds.
	Ns float64
}

// Run executes the microbenchmark suite and fits a cost model, returning
// the host-stamped profile. The fit's observations are returned inside
// the profile's metadata (count and relative residual), not raw.
func Run(opt Options) (*Profile, error) {
	opt = opt.withDefaults()
	obs, err := Collect(opt)
	if err != nil {
		return nil, err
	}
	model, residual := Fit(obs)
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("calibrate: fit produced an invalid model: %w", err)
	}
	p := NewProfile(model)
	p.Scale = opt.Scale
	p.Observations = len(obs)
	p.ResidualFrac = residual
	return p, nil
}

// Collect runs the microbenchmarks and returns the raw observations.
func Collect(opt Options) ([]Observation, error) {
	opt = opt.withDefaults()
	fracs := []float64{1.0 / 128, 1.0 / 32, 1.0 / 8, 1.0 / 4, 1.0 / 2}
	runs := 4
	if opt.Quick {
		fracs = []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0 / 2}
		runs = 3
	}

	// Two degree regimes so the row and per-edge-probe terms separate in
	// the fit (within one graph rows·d̄ is proportional to rows): a skewed
	// R-MAT at edge factor 16 and a uniform Erdős–Rényi at average degree
	// ~6. The uniform graph is half the size, so the O(OutRows) terms
	// (bitmap-scatter clear) vary independently of the per-op setup
	// constant and stay identifiable.
	rmat, err := generate.RMAT(generate.RMATConfig{
		Scale: opt.Scale, EdgeFactor: 16, Undirected: true, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	un := 1 << (opt.Scale - 1)
	uniform, err := generate.ErdosRenyi(un, 6/float64(un), opt.Seed+1)
	if err != nil {
		return nil, err
	}

	var obs []Observation
	rng := rand.New(rand.NewSource(opt.Seed + 2))
	for _, g := range []struct {
		name string
		m    generate.PatternMatrix
	}{{"rmat", rmat}, {"uniform", uniform}} {
		for _, frac := range fracs {
			obs = append(obs, benchGraph(g.name, g.m.CSR(), frac, runs, rng)...)
		}
	}
	return obs, nil
}

// orAndSR is the Boolean traversal semiring the benchmarks run under —
// the same structure-only, early-exiting configuration BFS uses, so the
// fitted coefficients describe the traversal workload the planner
// actually schedules.
func orAndSR() core.SR[bool] {
	terminal := true
	return core.SR[bool]{
		Add:      func(a, b bool) bool { return a || b },
		Id:       false,
		Terminal: &terminal,
		Mul:      func(a, b bool) bool { return a && b },
		One:      true,
	}
}

// benchGraph times the four kernel variants on one graph at one frontier
// density and returns their observations.
func benchGraph(name string, csr *sparse.CSR[bool], frac float64, runs int, rng *rand.Rand) []Observation {
	n := csr.Rows
	d := core.AvgRowDegree(csr.NNZ(), n)
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	sr := orAndSR()
	opts := core.Opts{StructureOnly: true, EarlyExit: true, Ws: core.NewWorkspace(n, n)}

	// A visited-like pattern with k set bits, in both layouts the kernels
	// read: sorted index list, packed words.
	ind := pickIndices(rng, n, k)
	val := make([]bool, k)
	for i := range val {
		val[i] = true
	}
	bitsetVal := make([]bool, n)
	words := make([]uint64, core.BitsetWords(n))
	for _, idx := range ind {
		bitsetVal[idx] = true
	}
	core.BitsetScatter(words, ind)
	denseVal := make([]bool, n)
	for i := range denseVal {
		denseVal[i] = true
	}

	// Push-side work counts, exactly as the planner computes them: Σ
	// out-degree over the frontier off the CSC pointer array (symmetric
	// generators make CSR and CSC interchangeable here).
	edgesF := 0.0
	for _, i := range ind {
		edgesF += float64(csr.RowLen(int(i)))
	}
	mergeFactor := math.Log2(float64(k) + 2)
	// Pull-side counts under the ¬visited word mask: the planner prices
	// allowed rows times average degree.
	allowRows := float64(n - k)
	mask := core.MaskView{Words: words, Scmp: true}

	wVal := make([]bool, n)
	wPresent := make([]bool, n)
	outWords := make([]uint64, core.BitsetWords(n))

	type bench struct {
		name  string
		feats map[int]float64
		run   func()
	}
	benches := []bench{
		{"pull-dense", map[int]float64{
			termSetup: 1, termRow: float64(n), termProbeDense: float64(n) * d,
		}, func() {
			core.RowMxv(wVal, wPresent, csr, core.DenseVec(denseVal), sr, opts)
		}},
		{"pull-masked-word", map[int]float64{
			termSetup: 1, termRow: allowRows, termProbeWord: allowRows * d,
		}, func() {
			core.RowMaskedMxv(wVal, wPresent, csr, core.BitsetVec(bitsetVal, words, k), mask, sr, opts)
		}},
		{"push-sort", map[int]float64{
			termSetup: 1, termGather: edgesF, termSort: edgesF * mergeFactor,
		}, func() {
			core.ColMxv(csr, core.SparseVec(n, ind, val), sr, opts)
		}},
		{"push-scatter", map[int]float64{
			termSetup: 1, termGather: edgesF, termScatter: edgesF, termClear: float64(n),
		}, func() {
			// The kernel expects a cleared output. The pipeline's O(n) pass
			// packs the bytes into the output's words as it clears them;
			// timed here before the scatter, it is exactly the ClearNs term,
			// and without it repeated runs would measure a warm output whose
			// stale presence suppresses the writes.
			core.BitsetFromBools(outWords, wPresent)
			core.ColMxvBitmap(wVal, wPresent, csr, core.SparseVec(n, ind, val), core.MaskView{}, false, sr, opts)
		}},
	}

	out := make([]Observation, 0, len(benches))
	for _, b := range benches {
		o := Observation{Bench: fmt.Sprintf("%s/%.3g/%s", name, frac, b.name)}
		for t, v := range b.feats {
			o.Feats[t] = v
		}
		o.Ns = float64(perf.TimeN(1, runs, b.run).Nanoseconds())
		out = append(out, o)
	}
	return out
}

// pickIndices returns k distinct sorted indices in [0, n).
func pickIndices(rng *rand.Rand, n, k int) []uint32 {
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	ind := make([]uint32, k)
	for i, v := range perm {
		ind[i] = uint32(v)
	}
	return ind
}

// Fit least-squares-fits the cost model to the observations under a
// non-negativity constraint, returning the model and the root-mean-square
// relative residual (0 = perfect fit). The normal equations get a small
// ridge term for numerical stability; negative coefficients are handled
// active-set style — clamped to zero and the system re-solved without
// them — so a weakly identified term degrades to "free" instead of going
// negative and poisoning the crossover.
func Fit(obs []Observation) (core.CostModel, float64) {
	if len(obs) == 0 {
		return core.CostModel{}, 0
	}
	active := [numTerms]bool{}
	for i := range active {
		active[i] = true
	}
	var coef [numTerms]float64
	for pass := 0; pass < numTerms; pass++ {
		coef = solveNormal(obs, active)
		clamped := false
		for t, c := range coef {
			if active[t] && c < 0 {
				active[t] = false
				clamped = true
			}
		}
		if !clamped {
			break
		}
	}
	for t := range coef {
		if !active[t] || coef[t] < 0 {
			coef[t] = 0
		}
	}

	m := core.CostModel{
		SetupNs:      coef[termSetup],
		RowNs:        coef[termRow],
		ProbeWordNs:  coef[termProbeWord],
		ProbeDenseNs: coef[termProbeDense],
		GatherNs:     coef[termGather],
		SortNs:       coef[termSort],
		ScatterNs:    coef[termScatter],
		ClearNs:      coef[termClear],
	}

	// RMS relative residual over observations the model prices.
	sum, cnt := 0.0, 0
	for _, o := range obs {
		pred := 0.0
		for t, f := range o.Feats {
			pred += coef[t] * f
		}
		if o.Ns > 0 {
			r := (pred - o.Ns) / o.Ns
			sum += r * r
			cnt++
		}
	}
	residual := 0.0
	if cnt > 0 {
		residual = math.Sqrt(sum / float64(cnt))
	}
	return m, residual
}

// solveNormal solves the ridge-regularized normal equations over the
// active terms by Gaussian elimination with partial pivoting.
func solveNormal(obs []Observation, active [numTerms]bool) [numTerms]float64 {
	var idx []int
	for t := 0; t < numTerms; t++ {
		if active[t] {
			idx = append(idx, t)
		}
	}
	k := len(idx)
	var out [numTerms]float64
	if k == 0 {
		return out
	}
	// A = XᵀX + λ·diag, b = Xᵀy. The ridge λ is scaled per column so
	// wildly different feature magnitudes (1 vs millions of edges) get
	// comparable damping.
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
	}
	for _, o := range obs {
		if o.Ns <= 0 {
			continue
		}
		// Each row is scaled by 1/Ns, so the solve minimizes *relative*
		// error: the planner compares costs at every magnitude, and an
		// absolute fit would let the big observations drown the small ones
		// it decides the early-BFS iterations with.
		w := 1 / (o.Ns * o.Ns)
		for i, ti := range idx {
			fi := o.Feats[ti]
			if fi == 0 {
				continue
			}
			b[i] += w * fi * o.Ns
			for j, tj := range idx {
				a[i][j] += w * fi * o.Feats[tj]
			}
		}
	}
	// Proportional ridge: scale-free, so the 1/Ns² row weighting cannot
	// let an absolute damping term swamp the (tiny) weighted moments.
	const lambda = 1e-6
	for i := range a {
		a[i][i] *= 1 + lambda
	}

	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		if a[col][col] == 0 {
			continue
		}
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := k - 1; r >= 0; r-- {
		if a[r][r] == 0 {
			continue
		}
		v := b[r]
		for c := r + 1; c < k; c++ {
			v -= a[r][c] * b[c]
		}
		b[r] = v / a[r][r]
	}
	for i, t := range idx {
		out[t] = b[i]
	}
	return out
}
