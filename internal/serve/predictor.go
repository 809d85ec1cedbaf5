package serve

import (
	"math"
	"sort"
	"sync"
)

// predictorAlpha is the EWMA weight of one measured whole-query runtime:
// the same trade the kernel corrector makes (core.Corrector), scaled to
// query granularity — a handful of completed queries converge the
// estimate, one outlier cannot flip the admission decision.
const predictorAlpha = 0.25

// predictor estimates whole-query run time per (graph, algo) pair: an
// EWMA over the measured run nanoseconds of completed queries. The
// planner's cost model prices the direction of one matvec; pricing a
// whole query is left to measurement. The admission path reads
// predictions to price queue drain and deadline feasibility; the budget
// path multiplies them into per-query execution budgets; /metrics exports
// each entry with its predicted-vs-measured accuracy ratio.
type predictor struct {
	mu      sync.Mutex
	entries map[predKey]*predEntry
}

type predKey struct {
	graph, algo string
}

// predEntry is one (graph, algo) estimate. Accuracy sums pair each
// completed query's admission-time prediction with its measured run time,
// so the exported ratio compares like with like (queries that ran before
// any prediction existed do not dilute it).
type predEntry struct {
	ewmaNs  float64 // 0 until the first measured sample
	samples uint64
	predSum float64
	measSum float64
}

func newPredictor() *predictor {
	return &predictor{entries: make(map[predKey]*predEntry)}
}

// predict returns the current estimate in nanoseconds for one query,
// creating the entry on first sight so /metrics lists the pair. Zero
// means "no idea yet": before the pair's first completion the admission
// path treats its queries as always feasible and runs them without a
// budget.
func (p *predictor) predict(graph, algo string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[predKey{graph, algo}]
	if e == nil {
		e = &predEntry{}
		p.entries[predKey{graph, algo}] = e
	}
	return e.ewmaNs
}

// observe folds one completed query's measured run time into the EWMA and,
// when the query carried an admission-time prediction, into the accuracy
// sums. Only successful queries observe: a cancelled or shed query's
// partial runtime says nothing about the full cost.
func (p *predictor) observe(graph, algo string, predictedNs, measuredNs float64) {
	if measuredNs <= 0 || math.IsNaN(measuredNs) || math.IsInf(measuredNs, 0) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[predKey{graph, algo}]
	if e == nil {
		e = &predEntry{}
		p.entries[predKey{graph, algo}] = e
	}
	if e.ewmaNs == 0 {
		e.ewmaNs = measuredNs
	} else {
		e.ewmaNs += predictorAlpha * (measuredNs - e.ewmaNs)
	}
	e.samples++
	if predictedNs > 0 {
		e.predSum += predictedNs
		e.measSum += measuredNs
	}
}

// PredictionSnapshot is one (graph, algo) entry of the /metrics
// predictions section.
type PredictionSnapshot struct {
	// EwmaNs is the measured-runtime EWMA the next query is priced at
	// (zero until a query completes).
	EwmaNs float64 `json:"ewma_ns"`
	// Samples counts the completed queries folded into the EWMA.
	Samples uint64 `json:"samples"`
	// AccuracyRatio is Σ measured / Σ predicted over completed queries
	// that carried an admission-time prediction: 1.0 is a perfect
	// predictor, 0 means no such query has completed yet.
	AccuracyRatio float64 `json:"accuracy_ratio"`
}

// snapshot exports every entry keyed "graph/algo".
func (p *predictor) snapshot() map[string]PredictionSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.entries) == 0 {
		return nil
	}
	out := make(map[string]PredictionSnapshot, len(p.entries))
	keys := make([]predKey, 0, len(p.entries))
	for k := range p.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].graph != keys[j].graph {
			return keys[i].graph < keys[j].graph
		}
		return keys[i].algo < keys[j].algo
	})
	for _, k := range keys {
		e := p.entries[k]
		ps := PredictionSnapshot{EwmaNs: e.ewmaNs, Samples: e.samples}
		if e.predSum > 0 {
			ps.AccuracyRatio = e.measSum / e.predSum
		}
		out[k.graph+"/"+k.algo] = ps
	}
	return out
}
