package graphblas

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pushpull/internal/core"
)

// The serving contract under test: one Matrix shared by every goroutine,
// everything mutable — vectors, descriptors, correctors, plan sinks,
// workspaces — owned per traversal. Run under -race this pins the claim
// the package docs make ("one Descriptor per goroutine, one Matrix for
// everyone").

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
// every piece of mutable state built locally.
func mxvBFS(a *Matrix[bool], source int, dir Direction) ([]int32, error) {
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

	ws := AcquireWorkspace(n, n)
	defer ws.Release()
	var corr core.Corrector
	var plan core.Plan
	desc := &Descriptor{
		Transpose:            true,
		StructureOnly:        true,
		StructuralComplement: true,
		Direction:            dir,
		Workspace:            ws,
		Corrector:            &corr,
		Plan:                 &plan,
		Context:              context.Background(),
	}
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

func TestConcurrentTraversalsSharedMatrix(t *testing.T) {
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
				got, err := mxvBFS(a, s, dir)
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
