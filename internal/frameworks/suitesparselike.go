package frameworks

// SuiteSparseBFS mimics the 2017-era SuiteSparse:GraphBLAS BFS the paper
// measured: a *single-threaded* CPU implementation that "performs matvecs
// with the column-based algorithm" and "executes in only the forward
// (push) direction". The multiway merge is the textbook heap merge, the
// complement mask is applied after the merge, and no structure-only or
// early-exit shortcuts apply. Its large slowdowns in Figure 7 come from
// exactly these properties, not from implementation sloppiness.
func SuiteSparseBFS(g *Graph, source int) []int32 {
	depths := newDepths(g.N, source)
	visited := make([]bool, g.N)
	visited[source] = true
	frontier := []uint32{uint32(source)}
	for depth := int32(1); len(frontier) > 0; depth++ {
		// Gather the frontier's neighbour lists sequentially.
		offsets := make([]int, len(frontier)+1)
		for i, v := range frontier {
			offsets[i+1] = offsets[i] + g.Out.RowLen(int(v))
		}
		total := offsets[len(frontier)]
		if total == 0 {
			break
		}
		keys := make([]uint32, total)
		vals := make([]uint32, total)
		for i, v := range frontier {
			ind, _ := g.Out.RowSpan(int(v))
			copy(keys[offsets[i]:], ind)
			for j := range ind {
				vals[offsets[i]+j] = v
			}
		}
		// k-way heap merge (O(n log k)), single-threaded.
		mergedK, _ := multiwayMergePairs(keys, vals, offsets, func(a, _ uint32) uint32 { return a })
		// Complement-mask applied post hoc.
		next := mergedK[:0]
		for _, v := range mergedK {
			if !visited[v] {
				visited[v] = true
				depths[v] = depth
				next = append(next, v)
			}
		}
		frontier = next
	}
	return depths
}

// multiwayMergePairs merges k sorted (key, value) runs, combining values of
// equal keys with combine. Runs are described by offsets into keys: run i
// is keys[offsets[i]:offsets[i+1]]. It is the textbook O(n log k) k-way merge
// SuiteSparse '17 ran and the paper's Section 3.1 states the push's cost in.
func multiwayMergePairs[V any](keys []uint32, vals []V, offsets []int, combine func(V, V) V) ([]uint32, []V) {
	k := len(offsets) - 1
	if k <= 0 {
		return nil, nil
	}
	h := newRunHeap(k)
	for r := 0; r < k; r++ {
		if offsets[r] < offsets[r+1] {
			h.push(runCursor{key: keys[offsets[r]], pos: offsets[r], end: offsets[r+1]})
		}
	}
	total := offsets[k] - offsets[0]
	outK := make([]uint32, 0, total)
	outV := make([]V, 0, total)
	for h.len() > 0 {
		c := h.pop()
		if n := len(outK); n > 0 && outK[n-1] == c.key {
			outV[n-1] = combine(outV[n-1], vals[c.pos])
		} else {
			outK = append(outK, c.key)
			outV = append(outV, vals[c.pos])
		}
		if c.pos+1 < c.end {
			h.push(runCursor{key: keys[c.pos+1], pos: c.pos + 1, end: c.end})
		}
	}
	return outK, outV
}

// runCursor tracks one input run's head during the heap merge.
type runCursor struct {
	key uint32
	pos int
	end int
}

// runHeap is a minimal binary min-heap over run cursors keyed by the head
// element. A hand-rolled heap avoids container/heap's interface boxing in
// this hot loop.
type runHeap struct {
	items []runCursor
}

func newRunHeap(capacity int) *runHeap {
	return &runHeap{items: make([]runCursor, 0, capacity)}
}

func (h *runHeap) len() int { return len(h.items) }

func (h *runHeap) push(c runCursor) {
	h.items = append(h.items, c)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].key <= h.items[i].key {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *runHeap) pop() runCursor {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].key < h.items[smallest].key {
			smallest = l
		}
		if r < last && h.items[r].key < h.items[smallest].key {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
