package core

import "unsafe"

// This file holds internal/core's only unsafe code (the module's other
// use is internal/serve's pooled result arrays, registry.go): word-at-a-time
// packing of []bool into bitset words. A Go bool is one byte holding
// exactly 0 or 1 (every value the language can produce), so eight of them
// load as a single uint64 whose low bit per byte is the value — and the
// classic movemask multiply gathers those eight bits into one byte, giving
// a 64-element pack in eight multiplies instead of 64 byte-granular loads.
// BitsetFromBools (bitset.go) packs the byte-output kernels' scratch
// through packBoolWord, whose scalar loop is the tail path and the oracle
// the unit tests check the fast path against.

// packMagic has one bit at position 56−7j for j = 0..7: multiplying a
// word of 0/1 bytes by it parks byte j's bit at position 56+j, so the top
// byte of the product is the eight values packed (no two terms collide,
// so no carries — see TestBoolPackRoundTrip for the exhaustive check).
const packMagic = 0x0102040810204080

// byteLowBits masks each byte of a word to its low bit.
const byteLowBits = 0x0101010101010101

// packBoolWordFast packs vals[base:base+64] (callers guarantee the full
// word is in range) into a bitset word: eight 8-byte loads, eight
// multiply-extracts.
func packBoolWordFast(vals []bool, base int) uint64 {
	p := unsafe.Pointer(&vals[base])
	var w uint64
	for k := 0; k < 8; k++ {
		x := *(*uint64)(unsafe.Add(p, k*8)) & byteLowBits
		w |= (x * packMagic) >> 56 << (8 * k)
	}
	return w
}

// b2u widens a bool to 0/1 without a branch (the compiler lowers the
// conditional over a loaded bool to a zero-extended byte move).
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// packBoolWord packs the (up to) 64 bools of vals[base:n] into a word.
// Full interior words take packBoolWordFast; only the tail word loops per
// element.
func packBoolWord(vals []bool, base, n int) uint64 {
	if base+wordBits <= n {
		return packBoolWordFast(vals, base)
	}
	var w uint64
	for i, k := base, uint(0); i < n; i, k = i+1, k+1 {
		w |= b2u(vals[i]) << k
	}
	return w
}
