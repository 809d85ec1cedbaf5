package par

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultGrain - 1, DefaultGrain, DefaultGrain + 1, 10 * DefaultGrain} {
		hits := make([]int32, n)
		For(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForSmallGrain(t *testing.T) {
	n := 1000
	var total atomic.Int64
	For(n, 3, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total.Add(int64(i))
		}
	})
	want := int64(n*(n-1)) / 2
	if got := total.Load(); got != want {
		t.Fatalf("sum over For chunks = %d, want %d", got, want)
	}
}

func TestForWorkerPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1 << 16} {
		hits := make([]int32, n)
		used := ForWorker(n, func(w, lo, hi int) {
			if lo >= hi {
				t.Errorf("n=%d worker %d: empty span [%d,%d)", n, w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		if used < 1 || used > MaxWorkers() {
			t.Fatalf("n=%d: used=%d out of range", n, used)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestExclusiveScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 1 << 14, 1<<14 + 13, 1 << 17} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(100)
		}
		want := make([]int, n)
		sum := 0
		for i, x := range xs {
			want[i] = sum
			sum += x
		}
		total := ExclusiveScan(xs)
		if total != sum {
			t.Fatalf("n=%d: total=%d want %d", n, total, sum)
		}
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d: scan[%d]=%d want %d", n, i, xs[i], want[i])
			}
		}
	}
}

func TestExclusiveScanProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		ints := make([]int, len(xs))
		for i, x := range xs {
			ints[i] = int(x)
		}
		want := make([]int, len(xs))
		sum := 0
		for i := range ints {
			want[i] = sum
			sum += ints[i]
		}
		got := ExclusiveScan(ints)
		if got != sum {
			return false
		}
		for i := range ints {
			if ints[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers=%d want 1", MaxWorkers())
	}
	// Everything must still be correct single-threaded.
	xs := []int{3, 1, 4, 1, 5}
	if total := ExclusiveScan(xs); total != 14 {
		t.Fatalf("total=%d want 14", total)
	}
	if xs[4] != 9 {
		t.Fatalf("scan tail=%d want 9", xs[4])
	}
	if SetMaxWorkers(0) != 1 {
		t.Fatal("SetMaxWorkers should return previous value")
	}
}

func BenchmarkExclusiveScan(b *testing.B) {
	xs := make([]int, 1<<20)
	for i := range xs {
		xs[i] = i & 15
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExclusiveScan(xs)
	}
}

func BenchmarkParallelFor(b *testing.B) {
	n := 1 << 20
	dst := make([]float64, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(n, 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] = float64(j) * 1.5
			}
		})
	}
}
