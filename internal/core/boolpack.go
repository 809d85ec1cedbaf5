package core

import "unsafe"

// This file holds internal/core's only unsafe code (the module's other
// use is internal/serve's pooled result arrays, registry.go): word-at-a-time
// transfer between []bool and packed bitset words. A Go bool is one byte
// holding exactly 0 or 1 (every value the language can produce), so eight
// of them load as a single uint64 whose low bit per byte is the value —
// and the classic movemask multiply gathers those eight bits into one
// byte, giving a 64-element pack in eight multiplies instead of 64
// byte-granular loads. The inverse spread writes eight bools per store.
// Bitset pack and expand (bitset.go) and the bitset-out kernels' bitmap
// presence words (ewise.go) run through packBoolWord/unpackBoolWord, whose
// scalar loops are the boundary/tail path and the oracle the unit tests
// check the fast paths against.

// packMagic has one bit at position 56−7j for j = 0..7: multiplying a
// word of 0/1 bytes by it parks byte j's bit at position 56+j, so the top
// byte of the product is the eight values packed (no two terms collide,
// so no carries — see TestBoolPackRoundTrip for the exhaustive check).
const packMagic = 0x0102040810204080

// byteLowBits masks each byte of a word to its low bit.
const byteLowBits = 0x0101010101010101

// byteHighBits masks each byte of a word to its high bit.
const byteHighBits = 0x8080808080808080

// byteLow7Bits masks each byte of a word to its low seven bits.
const byteLow7Bits = 0x7f7f7f7f7f7f7f7f

// spreadMask keeps bit j of byte j: ANDing it against a byte replicated
// eight times isolates one distinct source bit per destination byte.
const spreadMask = 0x8040201008040201

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

// unpackBoolWordFast spreads a bitset word over vals[base:base+64]
// (callers guarantee the full word is in range): per 8-bit group, the
// group byte is replicated across the word, spreadMask isolates one
// source bit per destination byte, and a carry-free SWAR "is nonzero"
// normalizes each byte to 0/1 — eight bool stores per word write.
func unpackBoolWordFast(vals []bool, base int, w uint64) {
	p := unsafe.Pointer(&vals[base])
	for k := 0; k < 8; k++ {
		b := w >> (8 * k) & 0xff
		y := (b * byteLowBits) & spreadMask
		spread := ((y + byteLow7Bits) | y) & byteHighBits >> 7
		*(*uint64)(unsafe.Add(p, k*8)) = spread
	}
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

// packBoolWord packs 64 bools starting at base into a word (unconditional
// branch-free pack: bits at absent positions are garbage the caller masks
// off with presence words). Full interior words take packBoolWordFast;
// only the tail word loops per element.
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

// unpackBoolWord spreads a packed value word over 64 bools starting at
// base — unconditional branch-free stores; positions outside the presence
// pattern receive meaningless values, exactly like the bitmap kernels
// leave stale bytes at absent positions.
func unpackBoolWord(vals []bool, base, n int, valw uint64) {
	if base+wordBits <= n {
		unpackBoolWordFast(vals, base, valw)
		return
	}
	for i, k := base, uint(0); i < n; i, k = i+1, k+1 {
		vals[i] = valw>>k&1 != 0
	}
}
