package algorithms

import (
	"fmt"
	"math/rand"

	"pushpull/graphblas"
)

// MIS computes a maximal independent set with Luby's algorithm expressed
// in GraphBLAS operations — one of the paper's Section 5.6 masking
// beneficiaries: each round's neighbour-max matvec is masked to the
// still-undecided candidate set, whose shrinkage is known a priori.
//
// Per round: every candidate draws a random weight; a candidate whose
// weight beats the maximum over its candidate neighbours joins the set;
// winners and their neighbours leave the candidate pool. Expected O(log n)
// rounds. The rng seed makes runs reproducible.
func MIS(a *graphblas.Matrix[bool], seed int64) ([]bool, error) {
	n := a.NRows()
	if a.NCols() != n {
		return nil, fmt.Errorf("algorithms: MIS needs a square matrix, got %d×%d", a.NRows(), a.NCols())
	}
	rng := rand.New(rand.NewSource(seed))
	// (max, second) semiring: propagate each candidate's weight to its
	// neighbours, keep the largest.
	sr := graphblas.MaxSecondFloat64()
	weighted := graphblas.PatternAs[float64](a)

	inSet := make([]bool, n)
	candidate := make([]bool, n)
	for i := range candidate {
		candidate[i] = true
	}
	remaining := n
	csr := a.CSR()

	// One workspace and descriptor across the rounds; the per-round vectors
	// are the workspace's, cleared or overwritten each round.
	ws := graphblas.AcquireWorkspace(n, n)
	defer ws.Release()
	desc := runDescriptor(ws, graphblas.Descriptor{Transpose: true})
	weights := graphblas.ScratchVector[float64](ws, 0, n)
	nbrMax := graphblas.ScratchVector[float64](ws, 1, n)
	candMask := graphblas.ScratchVector[bool](ws, 0, n)

	var winners []int
	for remaining > 0 {
		// Draw weights for candidates; isolated candidates always win.
		weights.Clear()
		candMask.Clear()
		for i := 0; i < n; i++ {
			if candidate[i] {
				_ = weights.SetElement(i, 1+rng.Float64()) // strictly > identity
				_ = candMask.SetElement(i, true)
			}
		}
		// nbrMax⟨candidates⟩ = max over candidate neighbours' weights.
		if _, err := graphblas.Into(nbrMax).Mask(candMask).With(desc).MxV(sr, weighted, weights); err != nil {
			return nil, err
		}
		// Winners: weight strictly greater than every candidate
		// neighbour's weight (ties impossible w.p. 1; break by index).
		winners = winners[:0]
		for i := 0; i < n; i++ {
			if !candidate[i] {
				continue
			}
			w, _ := weights.ExtractElement(i)
			m, err := nbrMax.ExtractElement(i)
			if err != nil || w > m {
				winners = append(winners, i)
			}
		}
		if len(winners) == 0 {
			// Degenerate tie round (vanishingly rare): deterministically
			// promote the lowest-indexed candidate to guarantee progress.
			for i := 0; i < n; i++ {
				if candidate[i] {
					winners = append(winners, i)
					break
				}
			}
		}
		for _, i := range winners {
			if !candidate[i] {
				continue // removed as a neighbour of an earlier winner
			}
			inSet[i] = true
			candidate[i] = false
			remaining--
			ind, _ := csr.RowSpan(i)
			for _, j := range ind {
				if candidate[j] {
					candidate[j] = false
					remaining--
				}
			}
		}
	}
	return inSet, nil
}
