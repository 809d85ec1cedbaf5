package core

import (
	"math/bits"
	"sync/atomic"

	"pushpull/internal/merge"
	"pushpull/internal/sparse"
)

// Workspace is the kernels' reusable scratch arena — the subsystem that
// makes the push/pull matvec stack allocation-free in steady state. It owns
// every transient the four Table 1 kernel variants need: the push kernel's
// lengths/keys/vals gather buffers, the radix sort's ping-pong buffers and
// per-worker histograms (via merge.Scratch), the view-materialization
// scratch, and — crucially for the parallel paths — the *pinned loop
// bodies*: func values created once and re-aimed at each call's operands,
// so dispatching through par never allocates a closure.
//
// The handle itself is type-erased; per-element-type state lives in arenas
// keyed by the element type's zero value, so one Workspace serves a BFS
// (bool), a PageRank (float64) and a parent BFS (uint32) alike.
//
// A Workspace is a plain arena: it has no pool of its own. graphblas.Workspace
// owns one and pools it with the rest of its scratch; direct kernel callers
// pin one with NewWorkspace for as long as they want warm buffers. With
// Opts.Ws == nil a kernel call runs on a fresh arena, so its results are the
// caller's; with a pinned one push results alias its storage (see ColMxv).
//
// The kernels also count their work here (see Counter): TakeCounts reads
// what every call on the workspace added since the last read.
//
// A Workspace is not safe for concurrent use: it serves one kernel call at
// a time. Concurrent algorithm runs should each pin their own.
type Workspace struct {
	arenas map[any]countedArena // zero value of T → *arena[T]
}

// countedArena is what TakeCounts needs of an arena, whatever its T.
type countedArena interface{ takeCounts() Counter }

// NewWorkspace returns a workspace for a rows×cols operator. Nothing is
// sized up front: buffers grow lazily to the high-water mark of the calls
// they serve.
func NewWorkspace(rows, cols int) *Workspace {
	return &Workspace{}
}

// arenaFor returns ws's arena for element type T, creating it on first use;
// a nil ws gets a fresh arena that lives for one call. The map key is T's
// zero value boxed as any; for the small scalar types the kernels run over,
// boxing a zero hits the runtime's static cache and does not allocate.
func arenaFor[T comparable](ws *Workspace) *arena[T] {
	if ws == nil {
		return &arena[T]{}
	}
	var zero T
	key := any(zero)
	if a, ok := ws.arenas[key]; ok {
		return a.(*arena[T])
	}
	a := &arena[T]{}
	if ws.arenas == nil {
		ws.arenas = make(map[any]countedArena, 2)
	}
	ws.arenas[key] = a
	return a
}

// TakeCounts returns the work the kernels counted on ws since the last
// call, and clears it.
func (ws *Workspace) TakeCounts() Counter {
	var c Counter
	for _, a := range ws.arenas {
		c.Add(a.takeCounts())
	}
	return c
}

func (a *arena[T]) takeCounts() Counter {
	c := a.count
	a.count = Counter{}
	return c
}

// arena is the per-element-type scratch block: the radix push pipeline's
// gather and sort buffers, the views' compaction and materialization
// scratch, the pinned loop bodies and the kernels' work count. Buffer fields
// persist and grow to the high-water mark; the embedded loop-state structs
// pin the par loop bodies so parallel dispatch is closure-allocation-free.
type arena[T comparable] struct {
	ms merge.Scratch[T] // radix ping-pong buffers + histograms + pass bodies

	lengths []int    // push: per-column lengths, then exclusive-scanned offsets
	keys    []uint32 // push: gathered key concatenation (radix-sorted in place)
	vals    []T      // push: gathered value concatenation
	outVal  []T      // push: structure-only output values (all One)

	// View-materialization scratch: a sparse view handed to a pull kernel
	// packs into pullVal/pullWords; a bitset/dense view handed to a push
	// kernel compacts into pushInd/pushVal.
	pullVal   []T
	pullWords []uint64
	pushInd   []uint32
	pushVal   []T

	row rowLoop[T]
	col colLoop[T]

	count Counter
}

// grow returns buf resized to n, reallocating only past the high-water
// mark.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// pullOps is one pull call's staged operands — the output arrays, the
// row-oriented matrix, the input in its probe layout and the resolved
// semiring — which rowAccumulate folds a row against. The row loop bodies
// share it.
type pullOps[T comparable] struct {
	w        []T
	wPresent []bool
	g        *sparse.CSR[T]
	uVal     []T
	uWords   []uint64 // nil: every position is stored
	sr       SR[T]    // resolved: form and terminal already reflect the call's Opts
}

// rowLoop pins the row (pull) kernels' parallel bodies. Operands are staged
// in the struct before dispatch and cleared after, so the pooled workspace
// never retains caller memory between calls. Each chunk adds its output
// nonzeroes and examined matrix entries once.
type rowLoop[T comparable] struct {
	pullOps[T]
	mask     MaskView
	nvals    atomic.Int64
	examined atomic.Int64

	run          func(lo, hi int) // unmasked: every row
	runMaskWords func(lo, hi int) // masked: word-packed mask scan
	runList      func(lo, hi int) // masked: amortized allow-list
}

func (rl *rowLoop[T]) stage(ops pullOps[T], mask MaskView) {
	rl.pullOps, rl.mask = ops, mask
	rl.nvals.Store(0)
	rl.examined.Store(0)
}

// finishPull ends a pull on a: it adds the loop's examined entries and
// maskProbes (the rows a mask scan tested) to a's count, unstages the
// operands and returns the output nonzero count.
func (a *arena[T]) finishPull(maskProbes int) int {
	rl := &a.row
	nvals := int(rl.nvals.Load())
	a.count.MatrixAccesses += rl.examined.Load()
	a.count.MaskAccesses += int64(maskProbes)
	rl.pullOps, rl.mask = pullOps[T]{}, MaskView{}
	return nvals
}

func (rl *rowLoop[T]) ensure() {
	if rl.run != nil {
		return
	}
	rl.run = func(lo, hi int) {
		p := &rl.pullOps
		c, e := 0, 0
		for i := lo; i < hi; i++ {
			ok, n := rowAccumulate(p, i)
			if ok {
				c++
			}
			e += n
		}
		rl.add(c, e)
	}
	rl.runMaskWords = func(lo, hi int) {
		p, wPresent := &rl.pullOps, rl.wPresent
		words, scmp := rl.mask.Words, rl.mask.Scmp
		for i := lo; i < hi; i++ {
			wPresent[i] = false
		}
		c, e := 0, 0
		// One mask word covers 64 rows: the structural complement flips the
		// whole word, allowed rows fall out by trailing-zero enumeration,
		// and a fully disallowed word skips 64 rows on one load.
		for base := lo &^ 63; base < hi; base += 64 {
			mw := words[base>>6]
			if scmp {
				mw = ^mw
			}
			if base < lo {
				mw &^= (1 << uint(lo-base)) - 1 // rows below this chunk
			}
			if base+64 > hi {
				mw &= (1 << uint(hi-base)) - 1 // rows past this chunk (and past n)
			}
			for mw != 0 {
				i := base + bits.TrailingZeros64(mw)
				mw &= mw - 1
				ok, n := rowAccumulate(p, i)
				if ok {
					c++
				}
				e += n
			}
		}
		rl.add(c, e)
	}
	rl.runList = func(lo, hi int) {
		p, wPresent, list := &rl.pullOps, rl.wPresent, rl.mask.List
		c, e := 0, 0
		for k := lo; k < hi; k++ {
			i := int(list[k])
			wPresent[i] = false
			ok, n := rowAccumulate(p, i)
			if ok {
				c++
			}
			e += n
		}
		rl.add(c, e)
	}
}

// add records one chunk's output nonzeroes and examined entries.
func (rl *rowLoop[T]) add(nvals, examined int) {
	rl.nvals.Add(int64(nvals))
	rl.examined.Add(int64(examined))
}

// colLoop pins the column (push) kernel's size and gather bodies.
type colLoop[T comparable] struct {
	lengths []int
	cscG    *sparse.CSR[T]
	uInd    []uint32
	uVal    []T
	keys    []uint32
	vals    []T
	sr      SR[T]

	size         func(lo, hi int)
	gatherKeys   func(lo, hi int) // One form: keys alone
	gatherSecond func(lo, hi int) // second form: keys + the frontier value
	gatherPairs  func(lo, hi int) // general form: keys + Mul(matrix, frontier)
}

func (cl *colLoop[T]) clear() {
	cl.cscG, cl.uInd, cl.uVal = nil, nil, nil
	cl.keys, cl.vals, cl.lengths = nil, nil, nil
	cl.sr = SR[T]{}
}

func (cl *colLoop[T]) ensure() {
	if cl.size != nil {
		return
	}
	cl.size = func(lo, hi int) {
		lengths, cscG, uInd := cl.lengths, cl.cscG, cl.uInd
		for i := lo; i < hi; i++ {
			lengths[i] = cscG.RowLen(int(uInd[i]))
		}
	}
	cl.gatherKeys = func(lo, hi int) {
		lengths, cscG, uInd, keys := cl.lengths, cl.cscG, cl.uInd, cl.keys
		for i := lo; i < hi; i++ {
			ind, _ := cscG.RowSpan(int(uInd[i]))
			copy(keys[lengths[i]:], ind)
		}
	}
	cl.gatherSecond = func(lo, hi int) {
		lengths, cscG, uInd, keys := cl.lengths, cl.cscG, cl.uInd, cl.keys
		uVal, vals := cl.uVal, cl.vals
		for i := lo; i < hi; i++ {
			ind, _ := cscG.RowSpan(int(uInd[i]))
			off := lengths[i]
			copy(keys[off:], ind)
			x := uVal[i]
			for j := range ind {
				vals[off+j] = x
			}
		}
	}
	cl.gatherPairs = func(lo, hi int) {
		lengths, cscG, uInd, keys := cl.lengths, cl.cscG, cl.uInd, cl.keys
		uVal, vals, mul := cl.uVal, cl.vals, cl.sr.Mul
		for i := lo; i < hi; i++ {
			ind, val := cscG.RowSpan(int(uInd[i]))
			off := lengths[i]
			x := uVal[i]
			for j := range ind {
				keys[off+j] = ind[j]
				vals[off+j] = mul(val[j], x)
			}
		}
	}
}
