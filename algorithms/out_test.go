package algorithms

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pushpull/graphblas"
)

// checkOut drives one algorithm through the Out rule of the package docs:
// run(nil) is the reference (a fresh, caller-owned result); an n-element Out,
// pre-filled with junk, must come back as the result itself, element for
// element equal to the reference; any other length must be ignored. A run
// cancelled before its first round still returns its partial result in Out.
func checkOut[T comparable](t *testing.T, name string, n int, junk T, run func(ctx context.Context, out []T) ([]T, error)) {
	t.Helper()
	want, err := run(nil, nil)
	if err != nil || len(want) != n {
		t.Fatalf("%s without Out: %d elements, err %v", name, len(want), err)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = junk
	}
	got, err := run(nil, out)
	if err != nil {
		t.Fatalf("%s with Out: %v", name, err)
	}
	if &got[0] != &out[0] || len(got) != n {
		t.Errorf("%s: the result does not alias an n-element Out", name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: the result written into Out differs from the fresh one", name)
	}
	for _, wrong := range [][]T{make([]T, n-1), make([]T, n+1)} {
		got, err := run(nil, wrong)
		if err != nil {
			t.Fatalf("%s with a %d-element Out: %v", name, len(wrong), err)
		}
		if &got[0] == &wrong[0] || !slices.Equal(got, want) {
			t.Errorf("%s: an Out of %d elements (n = %d) must be ignored", name, len(wrong), n)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err = run(ctx, out)
	if !errors.Is(err, graphblas.ErrCancelled) {
		t.Fatalf("%s cancelled: err %v, want ErrCancelled", name, err)
	}
	if len(got) != n || &got[0] != &out[0] {
		t.Errorf("%s: the partial result of a cancelled run does not alias Out", name)
	}
}

func TestOutBufferReceivesTheResult(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randUndirected(rng, 150, 0.04)
	wa := weightedFromBool(rng, a)
	n := a.NRows()
	checkOut(t, "BFS", n, int32(77), func(ctx context.Context, out []int32) ([]int32, error) {
		res, err := BFS(a, 3, BFSOptions{Out: out, Context: ctx})
		return res.Depths, err
	})
	checkOut(t, "ParentBFS", n, int64(77), func(ctx context.Context, out []int64) ([]int64, error) {
		return ParentBFSRun(a, 3, ParentBFSOptions{Out: out, Context: ctx})
	})
	checkOut(t, "SSSP", n, 77.0, func(ctx context.Context, out []float64) ([]float64, error) {
		return SSSP(wa, 3, SSSPOptions{Out: out, Context: ctx})
	})
	checkOut(t, "ConnectedComponents", n, uint32(77), func(ctx context.Context, out []uint32) ([]uint32, error) {
		return ConnectedComponentsRun(a, CCOptions{Out: out, Context: ctx})
	})
	checkOut(t, "PageRank", n, 77.0, func(ctx context.Context, out []float64) ([]float64, error) {
		res, err := PageRank(a, PageRankOptions{Out: out, Context: ctx})
		return res.Ranks, err
	})
}
