package algorithms

import (
	"container/heap"
	"math"

	"pushpull/graphblas"
)

// This file holds simple, obviously-correct reference implementations the
// algorithm tests compare against: queue BFS, Dijkstra, a dense PageRank
// power iteration, and a dense Brandes BC.

func refBFS(a *graphblas.Matrix[bool], source int) []int32 {
	n := a.NRows()
	depths := make([]int32, n)
	for i := range depths {
		depths[i] = -1
	}
	depths[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ind, _ := a.RowView(u)
		for _, v := range ind {
			if depths[v] < 0 {
				depths[v] = depths[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return depths
}

type pqItem struct {
	v    int
	dist float64
}
type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); x := old[n-1]; *p = old[:n-1]; return x }

func refDijkstra(a *graphblas.Matrix[float64], source int) []float64 {
	n := a.NRows()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	q := &pq{{source, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		ind, val := a.RowView(it.v)
		for k, w := range ind {
			nd := it.dist + val[k]
			if nd < dist[w] {
				dist[w] = nd
				heap.Push(q, pqItem{int(w), nd})
			}
		}
	}
	return dist
}

// refPageRank is the power iteration over out-edge scatters: every vertex
// hands rank/outdeg to each out-neighbour, sinks spread theirs uniformly.
func refPageRank(a *graphblas.Matrix[bool], damping, tol float64, maxIter int) []float64 {
	n := a.NRows()
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		next := make([]float64, n)
		dangling := 0.0
		for i := 0; i < n; i++ {
			ind, _ := a.RowView(i)
			if len(ind) == 0 {
				dangling += r[i]
			}
			for _, j := range ind {
				next[j] += r[i] / float64(len(ind))
			}
		}
		delta := 0.0
		for j := range next {
			next[j] = (1-damping)/float64(n) + damping*dangling/float64(n) + damping*next[j]
			delta += math.Abs(next[j] - r[j])
		}
		r = next
		if delta < tol {
			break
		}
	}
	return r
}

// refBC is dense Brandes over the given sources.
func refBC(a *graphblas.Matrix[bool], sources []int) []float64 {
	n := a.NRows()
	bc := make([]float64, n)
	for _, s := range sources {
		sigma := make([]float64, n)
		depth := make([]int32, n)
		for i := range depth {
			depth[i] = -1
		}
		sigma[s] = 1
		depth[s] = 0
		var order []int
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			ind, _ := a.RowView(u)
			for _, vv := range ind {
				v := int(vv)
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
				if depth[v] == depth[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		delta := make([]float64, n)
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			ind, _ := a.RowView(u)
			for _, vv := range ind {
				v := int(vv)
				if depth[v] == depth[u]+1 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != s {
				bc[u] += delta[u]
			}
		}
	}
	return bc
}
