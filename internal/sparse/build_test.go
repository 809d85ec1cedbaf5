package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pushpull/internal/par"
)

// refFromCOO is the naive reference the builder is checked against: a map
// keyed by coordinate, folded in input order, then sorted. It shares no code
// with build and reports the same errors.
func refFromCOO(nrows, ncols int, rows, cols []uint32, vals []int64, dup func(a, b int64) int64) (*CSR[int64], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("sparse: triple slices disagree: %d rows, %d cols, %d vals",
			len(rows), len(cols), len(vals))
	}
	if nrows < 0 || ncols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d×%d", nrows, ncols)
	}
	type coord struct{ r, c uint32 }
	cells := make(map[coord]int64)
	for i := range rows {
		if int(rows[i]) >= nrows || int(cols[i]) >= ncols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %d×%d", rows[i], cols[i], nrows, ncols)
		}
		at := coord{rows[i], cols[i]}
		if old, seen := cells[at]; seen && dup != nil {
			cells[at] = dup(old, vals[i])
		} else {
			cells[at] = vals[i]
		}
	}
	keys := make([]coord, 0, len(cells))
	for at := range cells {
		keys = append(keys, at)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].r != keys[j].r {
			return keys[i].r < keys[j].r
		}
		return keys[i].c < keys[j].c
	})
	a := &CSR[int64]{Rows: nrows, Cols: ncols, Ptr: make([]int, nrows+1)}
	for _, at := range keys {
		a.Ptr[at.r+1]++
		a.Ind = append(a.Ind, at.c)
		a.Val = append(a.Val, cells[at])
	}
	for i := 0; i < nrows; i++ {
		a.Ptr[i+1] += a.Ptr[i]
	}
	return a, nil
}

func sameCSR[T comparable](a, b *CSR[T]) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.Ptr, b.Ptr) && slices.Equal(a.Ind, b.Ind) && slices.Equal(a.Val, b.Val)
}

// orderSensitive is a fold that is neither commutative nor associative, so
// any deviation from left-to-right input order changes the result.
func orderSensitive(a, b int64) int64 { return a*31 + b }

// checkAgainstReference builds the triples with FromCOO, under both
// duplicate policies, and requires the reference's matrix or the
// reference's error.
func checkAgainstReference(t *testing.T, nrows, ncols int, rows, cols []uint32, vals []int64) {
	t.Helper()
	for _, dup := range []func(a, b int64) int64{nil, orderSensitive} {
		want, wantErr := refFromCOO(nrows, ncols, rows, cols, vals, dup)
		got, err := FromCOO(nrows, ncols, rows, cols, vals, dup)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%d×%d, %d triples: error %v, want %v", nrows, ncols, len(rows), err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d×%d, %d triples: %v", nrows, ncols, len(rows), err)
		}
		if err := Validate(got); err != nil {
			t.Fatalf("%d×%d, %d triples: invalid result: %v", nrows, ncols, len(rows), err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("%d×%d, %d triples, dup=%v: builder and reference disagree\n got %+v\nwant %+v",
				nrows, ncols, len(rows), dup != nil, got, want)
		}
	}
}

// sortBuild is the builder this package had until the counting passes
// replaced it — scatter by row, stable-sort each row by column, fold the runs
// of equal columns in place — kept as the reference build is held to.
func sortBuild[T any](nrows, ncols int, edges []uint64, vals []T, mirror bool, dup func(T, T) T) (*CSR[T], error) {
	if nrows < 0 || ncols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %d×%d", nrows, ncols)
	}
	if mirror && nrows != ncols {
		return nil, fmt.Errorf("sparse: cannot mirror edges of a non-square %d×%d matrix", nrows, ncols)
	}
	type entry struct {
		col uint32
		val T
	}
	rows := make([][]entry, nrows)
	for k, e := range edges {
		r, c := uint32(e>>32), uint32(e)
		if int(r) >= nrows || int(c) >= ncols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %d×%d", r, c, nrows, ncols)
		}
		var v T
		if vals != nil {
			v = vals[k]
		}
		rows[r] = append(rows[r], entry{c, v})
		if mirror {
			rows[c] = append(rows[c], entry{r, v})
		}
	}
	a := &CSR[T]{Rows: nrows, Cols: ncols, Ptr: make([]int, nrows+1)}
	for i, row := range rows {
		sort.SliceStable(row, func(x, y int) bool { return row[x].col < row[y].col })
		for k, e := range row {
			switch last := len(a.Ind) - 1; {
			case k == 0 || e.col != row[k-1].col:
				a.Ind = append(a.Ind, e.col)
				if vals != nil {
					a.Val = append(a.Val, e.val)
				}
			case vals != nil && dup != nil:
				a.Val[last] = dup(a.Val[last], e.val)
			case vals != nil:
				a.Val[last] = e.val
			}
		}
		a.Ptr[i+1] = len(a.Ind)
	}
	return a, nil
}

// rmatEdges draws skewed edges over 2^scale vertices: a few hub rows and
// columns, many repeats, self-loops kept.
func rmatEdges(rng *rand.Rand, scale, m int) []uint64 {
	edges := make([]uint64, m)
	for i := range edges {
		var r, c uint32
		for level := 0; level < scale; level++ {
			switch p := rng.Float64(); {
			case p < 0.57:
			case p < 0.76:
				c |= 1 << level
			case p < 0.95:
				r |= 1 << level
			default:
				r, c = r|1<<level, c|1<<level
			}
		}
		edges[i] = PackEdge(r, c)
	}
	return edges
}

// TestBuildMatchesSortBuild holds the counting passes to the sort they
// replaced, at every span count: same matrix bit for bit, or the same error.
// Inputs marked split are large enough that spanCount grants every width
// asked for, so the spans and column ranges really are that many.
func TestBuildMatchesSortBuild(t *testing.T) {
	withWorkers(t)
	rng := rand.New(rand.NewSource(24))
	repeat := func(e uint64, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = e
		}
		return out
	}
	lowerHalf := rmatEdges(rng, 6, 5000) // rows 0..31 of 67: the rest stay empty
	for i, e := range lowerHalf {
		lowerHalf[i] = e &^ (32 << 32)
	}
	oneRow := rmatEdges(rng, 5, 4000)
	for i, e := range oneRow {
		oneRow[i] = e & 0xffffffff
	}
	outside := rmatEdges(rng, 5, 4000)
	outside[700], outside[3100] = PackEdge(40, 1), PackEdge(2, 99) // spans 1 and 6 of 8
	cases := []struct {
		name         string
		nrows, ncols int
		edges        []uint64
		split        bool
	}{
		{"rmat", 64, 64, rmatEdges(rng, 6, 6000), true},
		{"rmat-odd-sizes", 67, 67, rmatEdges(rng, 6, 5003), true},
		{"all-duplicates", 4, 4, repeat(PackEdge(2, 1), 700), true},
		{"self-loops", 5, 5, append(repeat(PackEdge(3, 3), 300), rmatEdges(rng, 2, 300)...), true},
		{"empty-rows", 67, 67, lowerHalf, true},
		{"single-row", 1, 32, oneRow, true},
		{"no-rows", 0, 7, nil, false},
		{"no-rows-one-entry", 0, 7, []uint64{PackEdge(0, 3)}, false},
		{"empty-square", 9, 9, nil, false},
		{"outside-in-two-spans", 32, 32, outside, true},
	}
	dups := map[string]func(a, b int64) int64{
		"last-wins":       nil,
		"sum":             func(a, b int64) int64 { return a + b },
		"first-wins":      func(a, _ int64) int64 { return a },
		"order-sensitive": orderSensitive,
	}
	for _, c := range cases {
		vals := make([]int64, len(c.edges))
		for i := range vals {
			vals[i] = int64(rng.Intn(1000))
		}
		for _, valued := range []bool{false, true} {
			v := vals
			if !valued {
				v = nil
			}
			for _, mirror := range []bool{false, true} {
				for dupName, dup := range dups {
					want, wantErr := sortBuild(c.nrows, c.ncols, c.edges, v, mirror, dup)
					for _, workers := range []int{1, 2, 3, 8} {
						name := fmt.Sprintf("%s valued=%v mirror=%v dup=%s workers=%d", c.name, valued, mirror, dupName, workers)
						if c.split && spanCount(workers, len(c.edges), max(c.nrows, c.ncols)) != workers {
							t.Fatalf("%s: input too small to split %d ways", name, workers)
						}
						got, err := build(c.nrows, c.ncols, c.edges, v, mirror, dup, workers)
						if wantErr != nil {
							if err == nil || err.Error() != wantErr.Error() {
								t.Errorf("%s: error %v, want %v", name, err, wantErr)
							}
							continue
						}
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						if err := Validate(got); err != nil {
							t.Errorf("%s: invalid result: %v", name, err)
						}
						if !sameCSR(got, want) || (got.Val == nil) != (v == nil) {
							t.Errorf("%s: build and sortBuild disagree\n got %+v\nwant %+v", name, got, want)
						}
					}
				}
			}
		}
	}
}

// withWorkers runs the test body with four par workers, so the builder's
// spans run on parked workers whatever the host's CPU count (and -race sees
// it).
func withWorkers(t *testing.T) {
	prev := par.SetMaxWorkers(4)
	t.Cleanup(func() { par.SetMaxWorkers(prev) })
}

func TestBuildAgainstReference(t *testing.T) {
	withWorkers(t)
	rng := rand.New(rand.NewSource(14))
	shapes := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 700}, {700, 3}, {40, 40}, {1000, 1000}, {2000, 50}}
	for _, shape := range shapes {
		nr, nc := shape[0], shape[1]
		for _, n := range []int{0, 1, 50, 5000} {
			if nr == 0 || nc == 0 {
				n = 0
			}
			rows := make([]uint32, n)
			cols := make([]uint32, n)
			vals := make([]int64, n)
			// Rows drawn from the lower half leave the rest empty; the
			// small shapes collide constantly.
			for i := range rows {
				rows[i] = uint32(rng.Intn((nr + 1) / 2))
				cols[i] = uint32(rng.Intn(nc))
				vals[i] = int64(rng.Intn(1000))
			}
			checkAgainstReference(t, nr, nc, rows, cols, vals)
		}
	}
}

func TestBuildErrorsMatchReference(t *testing.T) {
	// The first offending triple, in input order, names the error.
	checkAgainstReference(t, 4, 4, []uint32{1, 9, 7}, []uint32{1, 0, 0}, []int64{1, 2, 3})
	checkAgainstReference(t, 4, 4, []uint32{1, 2}, []uint32{4, 9}, []int64{1, 2})
	checkAgainstReference(t, 0, 0, []uint32{0}, []uint32{0}, []int64{1})
	checkAgainstReference(t, -1, 3, nil, nil, nil)
	checkAgainstReference(t, 3, 3, []uint32{0, 1}, []uint32{0}, []int64{1})
	if _, err := FromEdges[bool](3, 4, []uint64{PackEdge(0, 1)}, true); err == nil {
		t.Error("mirroring a 3×4 edge list must fail")
	}
	if _, err := FromEdges[bool](3, 3, []uint64{PackEdge(0, 3)}, false); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

// TestMirrorIsAppendingSwappedPairs: the mirror flag must mean exactly what
// the generators used to do by hand.
func TestMirrorIsAppendingSwappedPairs(t *testing.T) {
	withWorkers(t)
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 7, 300, 1500} {
		edges := make([]uint64, 4*n)
		for i := range edges {
			edges[i] = PackEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n))) // self-loops and repeats included
		}
		both := slices.Clone(edges)
		for _, e := range edges {
			both = append(both, e<<32|e>>32)
		}
		mirrored, err := FromEdges[bool](n, n, edges, true)
		if err != nil {
			t.Fatal(err)
		}
		appended, err := FromEdges[bool](n, n, both, false)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(mirrored, appended) {
			t.Fatalf("n=%d: mirror and appended swapped pairs disagree", n)
		}
		if err := Validate(mirrored); err != nil {
			t.Fatal(err)
		}
		if mirrored.Val != nil || !Symmetric(mirrored) {
			t.Fatalf("n=%d: a mirrored edge list must build a symmetric pattern-only matrix", n)
		}
	}
}

// TestSymmetricWalkMatchesTranspose: the cursor walk must decide exactly
// what materialising the transpose and comparing it would.
func TestSymmetricWalkMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(name string, a *CSR[int64], want, wantPattern bool) {
		t.Helper()
		at := Transpose(a)
		if sameCSR(a, at) != want {
			t.Fatalf("%s: test input is not what it claims", name)
		}
		if got := Symmetric(a); got != want {
			t.Errorf("%s: Symmetric = %v, transpose compare says %v", name, got, want)
		}
		patternSame := a.Rows == at.Rows && slices.Equal(a.Ptr, at.Ptr) && slices.Equal(a.Ind, at.Ind)
		if patternSame != wantPattern {
			t.Fatalf("%s: test input's pattern is not what it claims", name)
		}
		if got := PatternSymmetric(a); got != wantPattern {
			t.Errorf("%s: PatternSymmetric = %v, transpose compare says %v", name, got, wantPattern)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		var rows, cols []uint32
		var vals []int64
		for i := 0; i < 1+rng.Intn(4*n); i++ {
			r, c, v := uint32(rng.Intn(n)), uint32(rng.Intn(n)), int64(rng.Intn(50))
			rows, cols, vals = append(rows, r, c), append(cols, c, r), append(vals, v, v)
		}
		sym, err := FromCOO(n, n, rows, cols, vals, nil)
		if err != nil {
			t.Fatal(err)
		}
		check("symmetric", sym, true, true)

		// One off-diagonal value changed: pattern still symmetric.
		k := -1
		for r := 0; r < n && k < 0; r++ {
			for j := sym.Ptr[r]; j < sym.Ptr[r+1]; j++ {
				if int(sym.Ind[j]) != r {
					k = j
					break
				}
			}
		}
		if k >= 0 {
			skew := &CSR[int64]{Rows: n, Cols: n, Ptr: sym.Ptr, Ind: sym.Ind, Val: slices.Clone(sym.Val)}
			skew.Val[k]++
			check("value-asymmetric", skew, false, true)
		}

		// One directed entry added where none was (if the draws find a
		// free cell): pattern broken too.
		for try := 0; try < 20; try++ {
			r, c := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			ind, _ := sym.RowSpan(int(r))
			if _, found := slices.BinarySearch(ind, c); r == c || found {
				continue
			}
			oneWay, err := FromCOO(n, n, append(rows, r), append(cols, c), append(vals, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			check("pattern-asymmetric", oneWay, false, false)
			break
		}

		// Arbitrary square and non-square matrices, whatever they are.
		nr, nc := 1+rng.Intn(30), 1+rng.Intn(30)
		if trial%2 == 0 {
			nc = nr
		}
		rr, cc, vv := make([]uint32, 2*nr), make([]uint32, 2*nr), make([]int64, 2*nr)
		for i := range rr {
			rr[i], cc[i], vv[i] = uint32(rng.Intn(nr)), uint32(rng.Intn(nc)), int64(rng.Intn(3))
		}
		any, err := FromCOO(nr, nc, rr, cc, vv, nil)
		if err != nil {
			t.Fatal(err)
		}
		at := Transpose(any)
		check("arbitrary", any, sameCSR(any, at),
			nr == nc && slices.Equal(any.Ptr, at.Ptr) && slices.Equal(any.Ind, at.Ind))
	}
	check("non-square", &CSR[int64]{Rows: 1, Cols: 2, Ptr: []int{0, 1}, Ind: []uint32{1}, Val: []int64{1}}, false, false)
	check("empty", &CSR[int64]{Ptr: []int{0}}, true, true)
}

// FuzzFromCOO decodes arbitrary bytes into a shape and a triple list and
// holds the builder to the reference: byte 0 and 1 are the dimensions in
// units of four (so shapes reach past the builder's parallel threshold),
// then three bytes per triple — row/4, col/4, and a value byte whose top
// bits carry the low two bits of row and column. Coordinates can exceed
// the shape, which must yield the reference's error.
func FuzzFromCOO(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 7, 0, 0, 9})
	f.Add([]byte{2, 3, 1, 2, 0xff, 1, 2, 0xf0, 0, 0, 1})
	f.Add([]byte{100, 100, 99, 99, 1, 99, 99, 2, 0, 50, 3, 0, 50, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		withWorkers(t)
		if len(data) < 2 {
			checkAgainstReference(t, 0, 0, nil, nil, nil)
			return
		}
		nrows, ncols := 4*int(data[0]), 4*int(data[1])
		var rows, cols []uint32
		var vals []int64
		for body := data[2:]; len(body) >= 3; body = body[3:] {
			v := body[2]
			rows = append(rows, 4*uint32(body[0])+uint32(v>>6))
			cols = append(cols, 4*uint32(body[1])+uint32(v>>4&3))
			vals = append(vals, int64(v))
		}
		checkAgainstReference(t, nrows, ncols, rows, cols, vals)
	})
}
