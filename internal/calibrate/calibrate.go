// Package calibrate fits the direction planner's per-machine cost
// coefficients (core.CostModel) to the kernels MxV runs. The planner
// counts each kernel's work terms (core.Work: setup, scanned rows, probes,
// gathered edges, sort units, scattered outputs, cleared slots) and prices
// them; the unit model charges one RAM access for most of them. This
// package measures what each term costs on the host: it replays BFS levels
// (harness.CalibrationPlans, the replay `ppbench decisions` and Fig. 5
// run) from several roots over kron, uniform, grid and RGG graphs, runs
// each level's MxV forced to push and to pull, and least-squares-fits the
// per-term nanoseconds to the plans' recorded counts and kernel times
// (Plan.Work and Plan.MeasuredNs, the figure the per-run corrector
// compares predictions against). A term no replayed kernel does fits to
// 0. The fitted model round-trips through a host-keyed JSON profile
// (PPTUNE_<os>_<arch>.json) that `ppbench -tune` loads for every
// experiment.
package calibrate

import (
	"fmt"
	"math"

	"pushpull/internal/core"
	"pushpull/internal/harness"
)

// Options configures a calibration run.
type Options struct {
	// Scale is log₂ of the replayed graphs' vertex count (default 12).
	// Bigger graphs push the working set past cache and the coefficients
	// toward their memory-bound values; smaller runs finish faster.
	Scale int
	// Quick trades fit quality for speed: fewer roots and timing
	// repetitions (the CI smoke configuration).
	Quick bool
}

// Observation is one timed kernel invocation: the work terms its plan
// counted and the kernel's measured nanoseconds. Exported so tests can
// fit synthetic observation sets without timing anything.
type Observation struct {
	// Bench names the graph and direction (trace/debug surface).
	Bench string
	// Work holds the plan's counted work terms.
	Work core.Work
	// Ns is the measured wall-clock in nanoseconds.
	Ns float64
}

// Run replays the calibration levels and fits a cost model, returning the
// host-stamped profile. The fit's observations are returned inside the
// profile's metadata (count and relative residual), not raw.
func Run(opt Options) (*Profile, error) {
	if opt.Scale <= 0 {
		opt.Scale = 12
	}
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

// Collect replays the calibration levels and returns one observation per
// replayed level and direction: the counted work of the kernel variant MxV
// ran and its measured time.
func Collect(opt Options) ([]Observation, error) {
	if opt.Scale <= 0 {
		opt.Scale = 12
	}
	roots, reps := 4, 5
	if opt.Quick {
		roots, reps = 2, 3
	}
	var obs []Observation
	err := harness.CalibrationPlans(opt.Scale, roots, reps, func(graph string, p core.Plan) {
		obs = append(obs, Observation{Bench: graph + "/" + p.Dir.String(), Work: p.Work, Ns: p.MeasuredNs})
	})
	return obs, err
}

// Fit least-squares-fits the cost model to the observations under a
// non-negativity constraint, returning the model and the root-mean-square
// relative residual (0 = perfect fit). The normal equations get a small
// ridge term for numerical stability; negative coefficients are handled
// active-set style — clamped to zero and the system re-solved without
// them — so a weakly identified term degrades to "free" instead of going
// negative and poisoning the crossover.
func Fit(obs []Observation) (core.CostModel, float64) {
	var dropped [core.NumTerms]bool
	var coef core.Work
	for range core.NumTerms {
		coef = solveNormal(obs, dropped)
		clamped := false
		for t, c := range coef {
			if !dropped[t] && c < 0 {
				dropped[t], clamped = true, true
			}
		}
		if !clamped {
			break
		}
	}
	var m core.CostModel
	for t, c := range coef {
		if !dropped[t] && c > 0 {
			*m.Coef(core.Term(t)) = c
		}
	}

	// RMS relative residual over observations the model prices.
	sum, cnt := 0.0, 0
	for _, o := range obs {
		if o.Ns > 0 {
			r := (m.Price(o.Work) - o.Ns) / o.Ns
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
// terms not dropped by Gaussian elimination with partial pivoting.
func solveNormal(obs []Observation, dropped [core.NumTerms]bool) core.Work {
	var idx []int
	for t := range dropped {
		if !dropped[t] {
			idx = append(idx, t)
		}
	}
	k := len(idx)
	var out core.Work
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
			fi := o.Work[ti]
			if fi == 0 {
				continue
			}
			b[i] += w * fi * o.Ns
			for j, tj := range idx {
				a[i][j] += w * fi * o.Work[tj]
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
