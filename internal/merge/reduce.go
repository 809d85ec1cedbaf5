package merge

// Segmented reduction and in-place deduplication over radix-sorted keys:
// the last step of the push pipeline (Algorithm 3 Line 15).

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
