package merge

// This file holds what surrounds the radix sort in the push pipeline and
// the one alternative to it:
//
//   - segmented reduction and in-place deduplication over already-sorted
//     keys, used after the radix sort (Algorithm 3 Line 15);
//   - a k-way heap merge, the textbook O(n log k) multiway merge the
//     Section 3.1 cost model is stated in terms of. The counted Table 1
//     push kernels and the SuiteSparse-style comparator run it; no served
//     push does.

// MultiwayMergePairs merges k sorted (key, value) runs, combining values of
// equal keys with combine. Runs are described by offsets into keys: run i
// is keys[offsets[i]:offsets[i+1]].
func MultiwayMergePairs[V any](keys []uint32, vals []V, offsets []int, combine func(V, V) V) ([]uint32, []V) {
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

// SegmentedReducePairs collapses equal adjacent keys in a sorted (key,
// value) sequence, combining values with combine. It works in place and
// returns the shortened prefixes.
func SegmentedReducePairs[V any](keys []uint32, vals []V, combine func(V, V) V) ([]uint32, []V) {
	if len(keys) == 0 {
		return keys[:0], vals[:0]
	}
	w := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[w] {
			vals[w] = combine(vals[w], vals[i])
		} else {
			w++
			keys[w] = keys[i]
			vals[w] = vals[i]
		}
	}
	return keys[:w+1], vals[:w+1]
}

// DedupeSortedKeys removes adjacent duplicates from a sorted key slice in
// place and returns the shortened prefix.
func DedupeSortedKeys(keys []uint32) []uint32 {
	if len(keys) == 0 {
		return keys
	}
	w := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[w] {
			w++
			keys[w] = keys[i]
		}
	}
	return keys[:w+1]
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
