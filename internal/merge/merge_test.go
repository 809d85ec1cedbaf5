package merge

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pushpull/internal/par"
)

func randKeys(rng *rand.Rand, n int, maxKey uint32) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		if maxKey == ^uint32(0) {
			keys[i] = rng.Uint32()
		} else {
			keys[i] = rng.Uint32() % (maxKey + 1)
		}
	}
	return keys
}

// checkKeys fails unless keys is orig sorted ascending.
func checkKeys(t *testing.T, label string, keys, orig []uint32) {
	t.Helper()
	want := slices.Clone(orig)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("%s: keys differ from slices.Sort", label)
	}
}

// checkStablePairs fails unless keys is orig sorted ascending and pos, which
// started as 0..n-1, carries each key's original position with ties kept in
// input order.
func checkStablePairs(t *testing.T, label string, keys []uint32, pos []int, orig []uint32) {
	t.Helper()
	checkKeys(t, label, keys, orig)
	for i := range keys {
		if orig[pos[i]] != keys[i] {
			t.Fatalf("%s: value at %d travelled without its key", label, i)
		}
		if i > 0 && keys[i-1] == keys[i] && pos[i-1] >= pos[i] {
			t.Fatalf("%s: stability violated at %d (%d,%d)", label, i, pos[i-1], pos[i])
		}
	}
}

func positions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

func TestSortKeysMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Scratch[int]
	for _, n := range []int{0, 1, 2, 100, parallelSortThreshold - 1, parallelSortThreshold + 1, 1 << 17} {
		for _, maxKey := range []uint32{0, 255, 65535, 1 << 20, 1<<32 - 1} {
			keys := randKeys(rng, n, maxKey)
			orig := slices.Clone(keys)
			SortKeysWith(keys, maxKey, &s)
			checkKeys(t, "SortKeysWith", keys, orig)
		}
	}
}

func TestSortPairsStable(t *testing.T) {
	// Payload carries the original position; for equal keys, positions must
	// remain ascending (LSD radix is stable).
	rng := rand.New(rand.NewSource(3))
	var s Scratch[int]
	for _, n := range []int{100, 1 << 16} {
		keys := randKeys(rng, n, 50) // few distinct keys → many ties
		orig := slices.Clone(keys)
		pos := positions(n)
		SortPairsWith(keys, pos, 50, &s)
		checkStablePairs(t, "SortPairsWith", keys, pos, orig)
	}
}

func TestSortPairsPermutesValuesConsistently(t *testing.T) {
	f := func(raw []uint16) bool {
		keys := make([]uint32, len(raw))
		vals := make([]uint32, len(raw))
		for i, r := range raw {
			keys[i] = uint32(r)
			vals[i] = uint32(r) * 3 // value derivable from key
		}
		SortPairs(keys, vals, 1<<16-1)
		for i := range keys {
			if vals[i] != keys[i]*3 {
				return false
			}
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortSingleWorker(t *testing.T) {
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(4))
	keys := randKeys(rng, 1<<16, 1<<30)
	orig := slices.Clone(keys)
	var s Scratch[int]
	SortKeysWith(keys, 1<<30, &s)
	checkKeys(t, "SortKeysWith", keys, orig)
}

// TestSortScratchReuse drives one Scratch the way a pinned kernel arena
// does from one push to the next: lengths on both sides of the parallel
// threshold, key bounds needing one to four digit passes, and key-only and
// key-value sorts interleaved, at several worker bounds so the histogram
// grid both grows and is reused at a smaller width.
func TestSortScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s Scratch[int]
	lengths := []int{parallelSortThreshold + 7, 3, parallelSortThreshold - 1, 1 << 17, 0, 200, parallelSortThreshold}
	maxKeys := []uint32{200, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1}
	for _, workers := range []int{par.MaxWorkers(), 4, 1, 2} {
		prev := par.SetMaxWorkers(workers)
		for i, n := range lengths {
			for j, maxKey := range maxKeys {
				keys := randKeys(rng, n, maxKey)
				orig := slices.Clone(keys)
				if (i+j)%2 == 0 {
					SortKeysWith(keys, maxKey, &s)
					checkKeys(t, "keys", keys, orig)
					continue
				}
				pos := positions(n)
				SortPairsWith(keys, pos, maxKey, &s)
				checkStablePairs(t, "pairs", keys, pos, orig)
			}
		}
		par.SetMaxWorkers(prev)
	}
}

func TestSegmentedReducePairs(t *testing.T) {
	keys := []uint32{1, 1, 2, 5, 5, 5, 9}
	vals := []int{1, 2, 3, 4, 5, 6, 7}
	k, v := SegmentedReducePairs(keys, vals, func(a, b int) int { return a + b })
	wantK := []uint32{1, 2, 5, 9}
	wantV := []int{3, 3, 15, 7}
	if len(k) != len(wantK) {
		t.Fatalf("len=%d want %d", len(k), len(wantK))
	}
	for i := range k {
		if k[i] != wantK[i] || v[i] != wantV[i] {
			t.Fatalf("at %d: (%d,%d) want (%d,%d)", i, k[i], v[i], wantK[i], wantV[i])
		}
	}
	if k, v := SegmentedReducePairs([]uint32{}, []int{}, func(a, b int) int { return a + b }); len(k) != 0 || len(v) != 0 {
		t.Fatal("empty input should stay empty")
	}
}

func TestDedupeSortedKeys(t *testing.T) {
	got := DedupeSortedKeys([]uint32{0, 0, 1, 3, 3, 3, 8})
	want := []uint32{0, 1, 3, 8}
	if len(got) != len(want) {
		t.Fatalf("len=%d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got[%d]=%d want %d", i, got[i], want[i])
		}
	}
	if out := DedupeSortedKeys(nil); len(out) != 0 {
		t.Fatal("nil input should return empty")
	}
}

// TestRadixReduceMatchesSortFold: the push pipeline's radix sort +
// segmented reduce must equal a test-local reference that sorts the pairs
// stably by key and folds each key's values in input order — bit for bit,
// since the radix sort is stable too.
func TestRadixReduceMatchesSortFold(t *testing.T) {
	var s Scratch[float64]
	combine := func(a, b float64) float64 { return a + b }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		if seed%8 == 0 {
			n += parallelSortThreshold // the per-worker histogram path
		}
		keys := randKeys(rng, n, 500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}

		order := positions(n)
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
		var wantK []uint32
		var wantV []float64
		for _, i := range order {
			if m := len(wantK); m > 0 && wantK[m-1] == keys[i] {
				wantV[m-1] = combine(wantV[m-1], vals[i])
			} else {
				wantK, wantV = append(wantK, keys[i]), append(wantV, vals[i])
			}
		}

		rk, rv := slices.Clone(keys), slices.Clone(vals)
		SortPairsWith(rk, rv, 500, &s)
		rk, rv = SegmentedReducePairs(rk, rv, combine)
		return slices.Equal(rk, wantK) && slices.Equal(rv, wantV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := randKeys(rng, 1<<20, 1<<21)
	work := make([]uint32, len(keys))
	var s Scratch[uint32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		SortKeysWith(work, 1<<21, &s)
	}
}

func BenchmarkSortPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	keys := randKeys(rng, 1<<20, 1<<21)
	vals := make([]uint32, len(keys))
	workK := make([]uint32, len(keys))
	workV := make([]uint32, len(keys))
	var s Scratch[uint32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(workK, keys)
		copy(workV, vals)
		SortPairsWith(workK, workV, 1<<21, &s)
	}
}
