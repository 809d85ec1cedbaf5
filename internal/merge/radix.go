// Package merge implements the push (column-based) matvec's sort-and-reduce
// substrate. The paper's Algorithm 3 concatenates the gathered neighbour
// lists and radix-sorts them, noting that the sort "is often the
// bottleneck" (Section 6.2) and that the structure-only optimization halves
// it by reducing a key-value sort to a key-only sort. This package provides:
//
//   - LSD radix sort, key-only and key-value, backed by a reusable Scratch:
//     one span on the caller's goroutine below parallelSortThreshold or on
//     one worker, per-worker histograms + stable scatter otherwise, standing
//     in for CUB's device radix sort;
//   - segmented reduction and deduplication over sorted keys (Algorithm 3
//     Line 15).
//
// Keys are uint32 vertex indices; sorts take the maximum key so only the
// necessary ⌈log₂₅₆ M⌉ digit passes run — the paper's "logM-bit radix
// sort" — and report how many ran.
package merge

import "pushpull/internal/par"

const (
	digitBits = 8
	radix     = 1 << digitBits
	digitMask = radix - 1
)

// parallelSortThreshold is the input size below which the sequential radix
// sort wins over spinning up workers and merging histograms.
const parallelSortThreshold = 1 << 15

// passesFor returns how many 8-bit digit passes are needed to sort keys
// bounded by maxKey. This is the ceil(log(M)/8) of the paper's logM-bit
// radix sort: a larger matrix row count forces more passes.
func passesFor(maxKey uint32) int {
	switch {
	case maxKey < 1<<8:
		return 1
	case maxKey < 1<<16:
		return 2
	case maxKey < 1<<24:
		return 3
	default:
		return 4
	}
}

// Scratch is the radix sort's reusable workspace: the ping-pong buffers,
// the per-worker digit histograms of the parallel sort, and the pinned
// per-pass loop bodies that let the parallel passes run through par without
// allocating closures. One Scratch serves one sort at a time;
// internal/core's arena embeds one per element type so iterative algorithms
// (BFS, PageRank) pay the buffers once per run instead of once per matvec.
//
// The zero value is ready to use; buffers grow to the high-water mark and
// stay there.
type Scratch[V any] struct {
	keyTmp []uint32
	valTmp []V
	hist   [][radix]int

	pass passState[V]
}

// passState carries one radix pass's inputs to the pinned loop bodies.
// The func fields are created once and reused: they read their operands
// from the struct, so per-pass setup is plain field assignment and the
// par dispatch allocates nothing.
type passState[V any] struct {
	srcK, dstK []uint32
	srcV, dstV []V
	shift      uint
	hist       [][radix]int

	histBody  func(w, lo, hi int)
	scatKBody func(w, lo, hi int)
	scatPBody func(w, lo, hi int)
}

func (s *Scratch[V]) keyBuf(n int) []uint32 {
	if cap(s.keyTmp) < n {
		s.keyTmp = make([]uint32, n)
	}
	return s.keyTmp[:n]
}

func (s *Scratch[V]) valBuf(n int) []V {
	if cap(s.valTmp) < n {
		s.valTmp = make([]V, n)
	}
	return s.valTmp[:n]
}

// SortPairs sorts keys ascending, permuting vals alongside, on a fresh
// Scratch — for one-off sorts outside a kernel workspace.
func SortPairs[V any](keys []uint32, vals []V, maxKey uint32) {
	SortPairsWith(keys, vals, maxKey, new(Scratch[V]))
}

// SortKeysWith sorts keys ascending with an LSD radix sort (key-only — the
// structure-only fast path) and returns the digit passes it ran, each of
// which moves every key once. maxKey bounds every element; pass the matrix
// row count minus one. The ping-pong buffer, the histograms and the loop
// bodies come from s, so steady-state calls allocate nothing.
func SortKeysWith[V any](keys []uint32, maxKey uint32, s *Scratch[V]) int {
	n := len(keys)
	if n < 2 {
		return 0
	}
	passes := passesFor(maxKey)
	st := s.ensurePassBodies()
	src, dst := keys, s.keyBuf(n)
	for p := 0; p < passes; p++ {
		st.shift = uint(p * digitBits)
		st.srcK, st.dstK = src, dst
		st.run(n, st.scatKBody)
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(keys, src)
	}
	st.srcK, st.dstK = nil, nil
	return passes
}

// SortPairsWith sorts keys ascending, permuting vals alongside (key-value —
// the path taken when matrix/vector values matter), and returns the digit
// passes it ran. The sort is stable.
func SortPairsWith[V any](keys []uint32, vals []V, maxKey uint32, s *Scratch[V]) int {
	n := len(keys)
	if n != len(vals) {
		panic("merge: keys/vals length mismatch")
	}
	if n < 2 {
		return 0
	}
	passes := passesFor(maxKey)
	st := s.ensurePassBodies()
	srcK, dstK := keys, s.keyBuf(n)
	srcV, dstV := vals, s.valBuf(n)
	for p := 0; p < passes; p++ {
		st.shift = uint(p * digitBits)
		st.srcK, st.dstK = srcK, dstK
		st.srcV, st.dstV = srcV, dstV
		st.run(n, st.scatPBody)
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if passes%2 == 1 {
		copy(keys, srcK)
		copy(vals, srcV)
	}
	st.srcK, st.dstK = nil, nil
	st.srcV, st.dstV = nil, nil
	return passes
}

// run executes one digit pass over n elements: workers histogram their
// span, a digit-major scan over the (digit, worker) grid yields stable
// scatter bases, then workers scatter — the standard parallel LSD
// formulation, which keeps the sort stable. Below parallelSortThreshold or
// on one worker the pass is one span on the caller's goroutine.
func (st *passState[V]) run(n int, scatter func(w, lo, hi int)) {
	if n < parallelSortThreshold || par.MaxWorkers() == 1 {
		st.histBody(0, 0, n)
		h, sum := &st.hist[0], 0
		for d := range h {
			h[d], sum = sum, sum+h[d]
		}
		scatter(0, 0, n)
		return
	}
	st.scanHist(par.ForWorker(n, st.histBody))
	par.ForWorker(n, scatter)
}

// ensurePassBodies builds the passes' loop bodies on first use and sizes
// the per-worker histograms for the current worker bound.
func (s *Scratch[V]) ensurePassBodies() *passState[V] {
	st := &s.pass
	if workers := par.MaxWorkers(); len(s.hist) < workers {
		s.hist = make([][radix]int, workers)
	}
	st.hist = s.hist
	if st.histBody != nil {
		return st
	}
	// Bodies hoist the pass state into locals so the element loops run on
	// registers rather than through the struct pointer. Masking the shift
	// shows the compiler it is below 32, so each key's shift is one
	// instruction, not a compare-and-clear (twice as fast on a key-only
	// sort).
	st.histBody = func(w, lo, hi int) {
		h := &st.hist[w]
		srcK, shift := st.srcK, st.shift&31
		for d := range h {
			h[d] = 0
		}
		for _, k := range srcK[lo:hi] {
			h[(k>>shift)&digitMask]++
		}
	}
	st.scatKBody = func(w, lo, hi int) {
		h := &st.hist[w]
		srcK, dstK, shift := st.srcK, st.dstK, st.shift&31
		for _, k := range srcK[lo:hi] {
			d := (k >> shift) & digitMask
			dstK[h[d]] = k
			h[d]++
		}
	}
	st.scatPBody = func(w, lo, hi int) {
		h := &st.hist[w]
		srcK, dstK, shift := st.srcK, st.dstK, st.shift&31
		srcV, dstV := st.srcV, st.dstV
		for i := lo; i < hi; i++ {
			k := srcK[i]
			d := (k >> shift) & digitMask
			dstK[h[d]] = k
			dstV[h[d]] = srcV[i]
			h[d]++
		}
	}
	return st
}

// scanHist turns the (digit, worker) histogram grid of one pass into stable
// scatter bases with a digit-major exclusive scan.
func (st *passState[V]) scanHist(used int) {
	sum := 0
	for d := 0; d < radix; d++ {
		for w := 0; w < used; w++ {
			st.hist[w][d], sum = sum, sum+st.hist[w][d]
		}
	}
}
