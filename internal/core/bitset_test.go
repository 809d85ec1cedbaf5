package core

import (
	"math/rand"
	"testing"

	"pushpull/internal/par"
)

func TestBitsetHelpers(t *testing.T) {
	if BitsetWords(0) != 0 || BitsetWords(1) != 1 || BitsetWords(64) != 1 || BitsetWords(65) != 2 {
		t.Fatal("BitsetWords")
	}
	if BitsetTailMask(64) != ^uint64(0) || BitsetTailMask(1) != 1 || BitsetTailMask(67) != 7 {
		t.Fatal("BitsetTailMask")
	}
	n := 131
	words := make([]uint64, BitsetWords(n))
	for _, i := range []int{0, 1, 63, 64, 65, 130} {
		BitsetSet(words, i)
		if !BitsetGet(words, i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if BitsetCount(words) != 6 {
		t.Fatalf("count = %d", BitsetCount(words))
	}
	BitsetUnset(words, 64)
	if BitsetGet(words, 64) || BitsetCount(words) != 5 {
		t.Fatal("unset failed")
	}
	var got []int
	BitsetForEach(words, func(i int) { got = append(got, i) })
	want := []int{0, 1, 63, 65, 130}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v", got)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	BitsetSetAll(words, n)
	if BitsetCount(words) != n {
		t.Fatalf("SetAll count = %d, want %d (tail must stay clear)", BitsetCount(words), n)
	}
	BitsetZero(words)
	if BitsetCount(words) != 0 {
		t.Fatal("Zero")
	}
}

// TestBitsetPackExpandRoundTrip packs random bitmaps into words and reads
// them back bit by bit: every bit matches, the count is exact, the tail
// stays clear, and the pack leaves the bitmap cleared for its next use.
func TestBitsetPackExpandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 63, 64, 65, 128, 200, 1024} {
		bools := make([]bool, n)
		for i := range bools {
			bools[i] = rng.Intn(2) == 1
		}
		want := append([]bool(nil), bools...)
		words := make([]uint64, BitsetWords(n))
		c := BitsetFromBools(words, bools)
		wantC := 0
		for i, b := range want {
			if b != BitsetGet(words, i) {
				t.Fatalf("n=%d bit %d mismatch", n, i)
			}
			if b {
				wantC++
			}
			if bools[i] {
				t.Fatalf("n=%d byte %d not cleared by the pack", n, i)
			}
		}
		if c != wantC || BitsetCount(words) != wantC {
			t.Fatalf("n=%d count %d want %d", n, c, wantC)
		}
		// Tail invariant: no bits at positions ≥ n.
		if words[len(words)-1]&^BitsetTailMask(n) != 0 {
			t.Fatalf("n=%d tail bits set", n)
		}
	}
}

// TestBoolPackRoundTrip pins the unsafe movemask pack against the scalar
// oracle over random words, including the all-ones and alternating
// patterns that expose multiply-carry collisions.
func TestBoolPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	patterns := []uint64{0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 0x8000000000000001}
	for i := 0; i < 200; i++ {
		patterns = append(patterns, rng.Uint64())
	}
	vals := make([]bool, 64)
	for _, w := range patterns {
		for k := range vals {
			vals[k] = w>>uint(k)&1 != 0
		}
		if got := packBoolWordFast(vals, 0); got != w {
			t.Fatalf("pack(%x) = %x", w, got)
		}
		if got := packBoolWord(vals[:63], 0, 63); got != w&(1<<63-1) {
			t.Fatalf("tail pack(%x) = %x", w, got)
		}
	}
}

// randomBoolViews builds a random Boolean bitset view, with its presence
// as a byte bitmap for the reference oracles.
func randomBoolViews(rng *rand.Rand, n int, density float64) (present []bool, bs VecView[bool]) {
	val := make([]bool, n)
	present = make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			present[i] = true
			val[i] = rng.Intn(2) == 1
		}
	}
	return present, bitsetView(val, present)
}

// TestBitsetEWiseKernelsMatchBitmap cross-checks the bitset-out apply
// kernel on Boolean bitset operands against a byte-bitmap reference over
// random operands and masks.
func TestBitsetEWiseKernelsMatchBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	not := func(_ int, x bool) bool { return !x }
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		uPresent, uBS := randomBoolViews(rng, n, 0.2+rng.Float64()*0.8)

		// Optional word-packed mask with random complement.
		useMask := rng.Intn(2) == 1
		var mv MaskView
		if useMask {
			mw := make([]uint64, BitsetWords(n))
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 1 {
					BitsetSet(mw, i)
				}
			}
			mv = MaskView{Words: mw, Scmp: rng.Intn(2) == 1}
		}

		wantPresent := make([]bool, n)
		wantC := 0
		for i := 0; i < n; i++ {
			if uPresent[i] && (!useMask || mv.Allows(i)) {
				wantPresent[i] = true
				wantC++
			}
		}
		gotVal := make([]bool, n)
		gotWords := make([]uint64, BitsetWords(n))
		if gotC := ApplyBitsetOut(gotVal, gotWords, uBS, useMask, mv, not); gotC != wantC {
			t.Fatalf("trial %d apply: count %d want %d", trial, gotC, wantC)
		}
		for i := 0; i < n; i++ {
			if BitsetGet(gotWords, i) != wantPresent[i] || (wantPresent[i] && gotVal[i] != !uBS.Dval[i]) {
				t.Fatalf("trial %d apply: position %d", trial, i)
			}
		}
		if gotWords[len(gotWords)-1]&^BitsetTailMask(n) != 0 {
			t.Fatalf("trial %d apply: tail bits set", trial)
		}
	}
}

// TestRowMxvBitsetInputMatchesBitmap pins the pull kernel's single-bit
// probe path against a byte-bitmap reference fold.
func TestRowMxvBitsetInputMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sr := SR[bool]{
		Add: func(a, b bool) bool { return a || b },
		Id:  false,
		Mul: func(a, b bool) bool { return a && b },
		One: true,
	}
	tr := true
	sr.Terminal = &tr
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(120)
		g := randSymCSR(rng, n, 0.1)
		uPresent, uBS := randomBoolViews(rng, n, 0.4)
		// Mask in word-packed layout, complemented half the time.
		mw := make([]uint64, BitsetWords(n))
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				BitsetSet(mw, i)
			}
		}
		mask := MaskView{Words: mw, Scmp: rng.Intn(2) == 1}
		// The last case reruns the defaults on one worker, inline.
		for k, opts := range []Opts{{}, {StructureOnly: true, EarlyExit: true}, {}} {
			workers := par.MaxWorkers()
			if k == 2 {
				workers = 1
			}
			prev := par.SetMaxWorkers(workers)
			wantV := make([]bool, n)
			wantP := make([]bool, n)
			wantN := 0
			for i := 0; i < n; i++ {
				if !mask.Allows(i) {
					continue
				}
				ind, val := g.RowSpan(i)
				for k, j := range ind {
					if uPresent[j] {
						wantP[i] = true
						wantV[i] = wantV[i] || opts.StructureOnly || val[k] && uBS.Dval[j]
					}
				}
				if wantP[i] {
					wantN++
				}
			}
			gotV := make([]bool, n)
			gotP := make([]bool, n)
			gotN := RowMaskedMxv(gotV, gotP, g, uBS, mask, sr, opts)
			par.SetMaxWorkers(prev)
			if wantN != gotN {
				t.Fatalf("trial %d: nvals %d want %d", trial, gotN, wantN)
			}
			for i := 0; i < n; i++ {
				if wantP[i] != gotP[i] || (wantP[i] && wantV[i] != gotV[i]) {
					t.Fatalf("trial %d: row %d differs", trial, i)
				}
			}
		}
	}
}
