package algorithms_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"pushpull/algorithms"
	"pushpull/generate"
	"pushpull/graphblas"
)

// relaxTrace is one relaxation run: every round's active set as (index,
// value bits) pairs, and the final state's bits.
type relaxTrace struct {
	rounds [][]uint64
	state  []uint64
}

// traceRelax runs the shared relaxation loop on a fresh workspace with
// every MxV forced to dir, reading the state in place of the active set on
// a pull when pullState is set, and checks after each round that the
// state is still Dense (the fold writes through its DenseView).
func traceRelax[T float64 | uint32](t *testing.T, name string, sr graphblas.Semiring[T], a *graphblas.Matrix[T], reverse bool, dir graphblas.Direction, pullState bool,
	init func(state, active *graphblas.Vector[T]), bits func(T) uint64) relaxTrace {
	t.Helper()
	n := a.NRows()
	ws := graphblas.NewWorkspace(n, n)
	desc, _ := ws.PlannedDescriptor(graphblas.Descriptor{Transpose: true, Direction: dir})
	var rev *graphblas.Descriptor
	if reverse {
		rev = ws.SecondDescriptor(graphblas.Descriptor{Direction: dir})
	}
	var tr relaxTrace
	var notDense []int
	state, err := algorithms.Relax(ws, sr, a, desc, rev, pullState, init, func(round int, _ time.Time, active *graphblas.Vector[T]) {
		if graphblas.ScratchVector[T](ws, algorithms.RelaxStateSlot, n).Format() != graphblas.Dense {
			notDense = append(notDense, round)
		}
		var set []uint64
		active.Iterate(func(i int, x T) bool {
			set = append(set, uint64(i), bits(x))
			return true
		})
		tr.rounds = append(tr.rounds, set)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(notDense) > 0 {
		t.Fatalf("%s: state not Dense after rounds %v", name, notDense)
	}
	for _, x := range state {
		tr.state = append(tr.state, bits(x))
	}
	return tr
}

// checkRelaxModes runs the loop under a forced push, a forced pull from
// the active set and a forced pull from the state, and requires the three
// to agree bit for bit on every round's active set and on the result.
func checkRelaxModes[T float64 | uint32](t *testing.T, name string, sr graphblas.Semiring[T], a *graphblas.Matrix[T], reverse bool,
	init func(state, active *graphblas.Vector[T]), bits func(T) uint64) []uint64 {
	t.Helper()
	push := traceRelax(t, name+"/push", sr, a, reverse, graphblas.ForcePush, false, init, bits)
	for _, m := range []struct {
		name      string
		pullState bool
	}{{"pull-active", false}, {"pull-state", true}} {
		got := traceRelax(t, name+"/"+m.name, sr, a, reverse, graphblas.ForcePull, m.pullState, init, bits)
		if len(got.rounds) != len(push.rounds) {
			t.Fatalf("%s/%s: %d rounds, push ran %d", name, m.name, len(got.rounds), len(push.rounds))
		}
		for r := range push.rounds {
			if !slices.Equal(got.rounds[r], push.rounds[r]) {
				t.Fatalf("%s/%s: round %d's active set (%d entries) differs from push's (%d)", name, m.name, r+1, len(got.rounds[r])/2, len(push.rounds[r])/2)
			}
		}
		if !slices.Equal(got.state, push.state) {
			t.Fatalf("%s/%s: final state differs from push's", name, m.name)
		}
	}
	return push.state
}

// TestRelaxationExactUnderEveryDirection holds the relaxation loop SSSP and
// ConnectedComponentsRun share to operand reuse's exactness claim: with
// every vertex whose value fell in the active set, a pull that reads the
// dense state selects the same improvements as one that reads the active
// set, and as a push. It runs min.plus over weighted copies (SSSP's
// semiring, from vertex 3) and min.second over the id pattern (CC's, with
// the reverse pass on the directed graph), on kron, grid, RGG and a
// directed RMAT, and checks the results against Dijkstra and union-find.
func TestRelaxationExactUnderEveryDirection(t *testing.T) {
	kron, err := generate.RMAT(generate.RMATConfig{Scale: 10, EdgeFactor: 16, Undirected: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := generate.Grid2D(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	rgg, err := generate.RGG(1024, math.Sqrt(15/(math.Pi*1024)), 109)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := generate.RMAT(generate.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const src = 3
	for _, g := range []struct {
		name string
		a    *graphblas.Matrix[bool]
	}{{"kron", kron}, {"grid", grid}, {"rgg", rgg}, {"rmat-dir", dir}} {
		n := g.a.NRows()
		wa, err := generate.WeightedCopy(g.a, 1, 10, 99)
		if err != nil {
			t.Fatal(err)
		}
		dist := checkRelaxModes(t, g.name+"/min.plus", graphblas.MinPlusFloat64(), wa, false,
			func(dist, active *graphblas.Vector[float64]) {
				dist.Fill(math.Inf(1))
				dist.DenseView()[src] = 0
				if err := active.SetElement(src, 0); err != nil {
					t.Fatal(err)
				}
			}, math.Float64bits)
		for i, d := range algorithms.RefDijkstra(wa, src) {
			if dist[i] != math.Float64bits(d) {
				t.Fatalf("%s/min.plus: dist[%d] = %v, Dijkstra %v", g.name, i, math.Float64frombits(dist[i]), d)
			}
		}

		labels := checkRelaxModes(t, g.name+"/min.second", graphblas.MinSecondUint32(), graphblas.PatternAs[uint32](g.a), !g.a.Symmetric(),
			func(labels, active *graphblas.Vector[uint32]) {
				for _, v := range []*graphblas.Vector[uint32]{labels, active} {
					v.Fill(0)
					for i, lv := 0, v.DenseView(); i < n; i++ {
						lv[i] = uint32(i)
					}
				}
			}, func(l uint32) uint64 { return uint64(l) })
		want := algorithms.RefComponents(g.a)
		for i, l := range want {
			if labels[i] != uint64(l) {
				t.Fatalf("%s/min.second: label[%d] = %d, union-find %d", g.name, i, labels[i], l)
			}
		}
	}
}
