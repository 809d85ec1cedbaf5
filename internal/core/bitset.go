package core

import "math/bits"

// This file is the word-packed bitset layer: presence patterns stored as
// []uint64 words, 64 positions per word, bit i of word i/64 reporting
// whether position i is stored. It is the representation GraphBLAST uses
// for its dense masks and the one the frontier literature (Grossman &
// Kozyrakis) shows is decisive for pull-side traversal: an 8× smaller
// visited mask than one byte per position, Boolean pattern algebra as 64-way
// word ops, and NVals/density as a popcount instead of an O(n) scan.
//
// Invariant, everywhere bitsets appear: bits at positions ≥ n in the last
// word are zero. Every producer in this package maintains it (see
// BitsetTailMask), which is what makes BitsetCount an exact popcount and
// lets whole-word ops run without per-word boundary checks.

// wordBits is the bit width of one bitset word.
const wordBits = 64

// BitsetWords returns the number of uint64 words covering n positions.
func BitsetWords(n int) int { return (n + wordBits - 1) >> 6 }

// BitsetTailMask returns the mask of valid bits in the last word of an
// n-position bitset: all ones when n is a multiple of 64.
func BitsetTailMask(n int) uint64 {
	if r := uint(n) & (wordBits - 1); r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// BitsetGet reports bit i.
func BitsetGet(words []uint64, i int) bool {
	return words[i>>6]>>(uint(i)&63)&1 != 0
}

// BitsetSet sets bit i.
func BitsetSet(words []uint64, i int) {
	words[i>>6] |= 1 << (uint(i) & 63)
}

// BitsetUnset clears bit i.
func BitsetUnset(words []uint64, i int) {
	words[i>>6] &^= 1 << (uint(i) & 63)
}

// BitsetZero clears every word.
func BitsetZero(words []uint64) {
	for i := range words {
		words[i] = 0
	}
}

// BitsetSetAll sets bits [0, n) and clears the tail, restoring the
// invariant.
func BitsetSetAll(words []uint64, n int) {
	for i := range words {
		words[i] = ^uint64(0)
	}
	if len(words) > 0 {
		words[len(words)-1] = BitsetTailMask(n)
	}
}

// BitsetCount returns the number of set bits — the popcount that replaces
// an O(n) presence rescan (math/bits.OnesCount64 compiles to a single
// POPCNT on amd64).
func BitsetCount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// BitsetFromBools packs a []bool presence bitmap into words (words must
// hold BitsetWords(len(bools))) and clears the bytes as it reads them,
// returning the set-bit count. It is how a byte-output kernel's scratch
// becomes a vector's pattern: the pack is the pass that re-zeroes the
// scratch for the next call. Full words pack eight bytes per load through
// the movemask multiply (boolpack.go).
func BitsetFromBools(words []uint64, bools []bool) int {
	n := len(bools)
	c := 0
	wi := 0
	for base := 0; base < n; base += wordBits {
		w := packBoolWord(bools, base, n)
		clear(bools[base:min(base+wordBits, n)])
		words[wi] = w
		c += bits.OnesCount64(w)
		wi++
	}
	for ; wi < len(words); wi++ {
		words[wi] = 0
	}
	return c
}

// BitsetScatter sets the bits named by a sorted-or-not index list.
func BitsetScatter(words []uint64, ind []uint32) {
	for _, i := range ind {
		words[i>>6] |= 1 << (uint(i) & 63)
	}
}

// BitsetForEach calls fn for every set bit in ascending order, enumerating
// via trailing-zero counts so empty words cost one load and sparse words
// cost one TZCNT per set bit. Convenience for cold paths; hot kernels
// inline the same loop.
func BitsetForEach(words []uint64, fn func(i int)) {
	for wi, w := range words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
