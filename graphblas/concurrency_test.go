package graphblas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pushpull/internal/core"
	"pushpull/internal/par"
)

// The serving contract under test: one Matrix shared by every goroutine,
// everything mutable — vectors and the workspaces that own each run's
// descriptors, plan sinks, correctors and cancellation token — owned per
// traversal, while a caller-built Descriptor is plain data that goroutines
// may share, Context included. Run under -race this pins the claim the
// package docs make.

// refBFS is the traversal oracle: plain queue BFS over the row adjacency
// (matching MxV's Transpose semantics, where the new frontier is the
// column pattern of the frontier's rows).
func refBFS(a *Matrix[bool], source int) []int32 {
	n := a.NRows()
	depths := make([]int32, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		ind, _ := a.RowView(i)
		for _, j := range ind {
			if depths[j] < 0 {
				depths[j] = depths[i] + 1
				queue = append(queue, int(j))
			}
		}
	}
	return depths
}

// mxvBFS is the library-level traversal one concurrent query runs: the
// masked-MxV loop of algorithms.BFS reduced to its graphblas calls, with
// its vectors built locally and every MxV run with desc.
func mxvBFS(a *Matrix[bool], source int, desc *Descriptor) ([]int32, error) {
	n := a.NRows()
	sr := OrAndBool()
	f := NewVector[bool](n)
	if err := f.SetElement(source, true); err != nil {
		return nil, err
	}
	visited := NewVector[bool](n)
	visited.ToBitset()
	if err := visited.SetElement(source, true); err != nil {
		return nil, err
	}
	depths := make([]int32, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0
	for depth := int32(1); f.NVals() > 0; depth++ {
		if _, err := Into(f).Mask(visited).With(desc).MxV(sr, a, f); err != nil {
			return nil, err
		}
		f.Iterate(func(i int, _ bool) bool {
			if depths[i] < 0 {
				depths[i] = depth
			}
			return true
		})
		if err := Into(visited).AssignVector(f); err != nil {
			return nil, err
		}
	}
	return depths, nil
}

// plannedBFS runs mxvBFS as a served query does: on its own workspace,
// with the run descriptor (plan sink, corrector, token) that workspace lends.
func plannedBFS(a *Matrix[bool], source int, dir Direction) ([]int32, error) {
	ws := AcquireWorkspace(a.NRows(), a.NCols())
	defer ws.Release()
	desc, _ := ws.PlannedDescriptor(Descriptor{
		Transpose:            true,
		StructureOnly:        true,
		StructuralComplement: true,
		Direction:            dir,
		CostModel:            &core.CostModel{GatherNs: 2, ProbeWordNs: 1, ProbeDenseNs: 0.5, RowNs: 3, ScatterNs: 2, SortNs: 2, SetupNs: 400},
		Context:              context.Background(),
	})
	return mxvBFS(a, source, desc)
}

// concurrencyMatrix is the shared graph: 400 vertices, 1–6 random
// out-edges each.
func concurrencyMatrix(t *testing.T) *Matrix[bool] {
	rng := rand.New(rand.NewSource(7))
	const n = 400
	var rows, cols []uint32
	var vals []bool
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(6)
		for k := 0; k < deg; k++ {
			rows = append(rows, uint32(i))
			cols = append(cols, uint32(rng.Intn(n)))
			vals = append(vals, true)
		}
	}
	a, err := NewMatrixFromCOO(n, n, rows, cols, vals, func(x, _ bool) bool { return x })
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConcurrentTraversalsSharedMatrix(t *testing.T) {
	a := concurrencyMatrix(t)
	n := a.NRows()
	sources := []int{0, 17, n / 2, n - 1}
	want := make(map[int][]int32, len(sources))
	for _, s := range sources {
		want[s] = refBFS(a, s)
	}

	// 16 goroutines × 4 traversals over the one matrix, mixing auto,
	// forced-push and forced-pull planning.
	dirs := []Direction{Auto, ForcePush, ForcePull}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int, dir Direction) {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				s := sources[(g+run)%len(sources)]
				got, err := plannedBFS(a, s, dir)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %v", g, run, err)
					return
				}
				for i := range got {
					if got[i] != want[s][i] {
						errs <- fmt.Errorf("goroutine %d run %d source %d: depth[%d] = %d, want %d",
							g, run, s, i, got[i], want[s][i])
						return
					}
				}
			}
		}(g, dirs[g%len(dirs)])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// flagCtx is a cancellable context whose Err synchronizes nothing while it
// is live (one atomic load): context.WithCancel's Err orders its callers,
// which would hide from the race detector a write a call makes to the
// descriptor the goroutines share.
type flagCtx struct {
	context.Context
	done atomic.Bool
}

func (c *flagCtx) Err() error {
	if c.done.Load() {
		return context.Canceled
	}
	return nil
}

// TestSharedDescriptorWithContext: goroutines share one caller-built
// Descriptor that carries a Context and no Workspace. Each MxV runs on the
// workspace it auto-acquires, whose token bridges the Context, so the
// descriptor holds nothing a call writes: every traversal matches the
// oracle, and cancelling the shared context aborts every goroutine's next
// call with ErrCancelled.
func TestSharedDescriptorWithContext(t *testing.T) {
	defer par.SetMaxWorkers(par.SetMaxWorkers(4)) // dispatch even on one CPU
	a := concurrencyMatrix(t)
	sources := []int{0, 17, 200, 399}
	want := make(map[int][]int32, len(sources))
	for _, s := range sources {
		want[s] = refBFS(a, s)
	}
	ctx := &flagCtx{Context: context.Background()}
	desc := &Descriptor{Transpose: true, StructureOnly: true, StructuralComplement: true, Context: ctx}

	// Each goroutine runs traversals until one fails; the context is
	// cancelled once every goroutine has completed a live one.
	const goroutines = 8
	var live, done sync.WaitGroup
	live.Add(goroutines)
	done.Add(goroutines)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			for run := 0; ; run++ {
				s := sources[(g+run)%len(sources)]
				got, err := mxvBFS(a, s, desc)
				if err != nil {
					if run == 0 {
						live.Done()
					}
					if !errors.Is(err, ErrCancelled) {
						errs <- fmt.Errorf("goroutine %d run %d: %v, want ErrCancelled", g, run, err)
					}
					return
				}
				if !slices.Equal(got, want[s]) {
					errs <- fmt.Errorf("goroutine %d run %d source %d: depths differ from the oracle", g, run, s)
				}
				if run == 0 {
					live.Done()
				}
			}
		}(g)
	}
	live.Wait()
	ctx.done.Store(true)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
