package graphblas

import (
	"math"

	"pushpull/internal/core"
)

// BinaryOp is a binary operator on the element domain: a semiring's ⊗ or
// its monoid's ⊕, or the duplicate combiner of a build.
type BinaryOp[T any] func(T, T) T

// Monoid is an associative BinaryOp with identity, the ⊕ of a semiring.
//
// Terminal, when non-nil, declares an annihilator: Op(*Terminal, x) ==
// *Terminal for every x. Kernels use it for the paper's early-exit
// optimization — once an accumulation reaches the terminal no further
// terms can change it, so the row scan may stop. Boolean OR's terminal is
// true; MIN's is the domain minimum; PLUS has none.
type Monoid[T any] struct {
	Op       BinaryOp[T]
	Identity T
	Terminal *T
}

// MulForm declares what a semiring's ⊗ reads, so kernels can skip the
// operands it ignores (the paper's structure-only optimization as a
// property of the semiring rather than a flag the caller must remember).
type MulForm = core.MulForm

// The four multiply forms.
const (
	// MulGeneral is ⊗(a_ij, x_j) = Mul(a_ij, x_j).
	MulGeneral = core.MulGeneral
	// MulSecond is ⊗(a_ij, x_j) = x_j: kernels fold the vector value
	// directly, never call Mul and never read the matrix's values — the
	// form that runs over a PatternAs view.
	MulSecond = core.MulSecond
	// MulOne is ⊗(a_ij, x_j) = One: neither operand's value is read.
	// Descriptor.StructureOnly selects it for any semiring.
	MulOne = core.MulOne
	// MulIndex is ⊗(a_ij, x_j) = j, the input's own index (SuiteSparse's
	// SECONDI): no value is read, not even the vector's. It has no general
	// form: MinIndexUint32 is the one semiring that runs it, and MxV
	// rejects any other with ErrInvalidValue.
	MulIndex = core.MulIndex
)

// Semiring is the generalized (D, ⊗, ⊕, I) of the GraphBLAS spec: Add is
// the additive monoid, Mul the multiplicative operator, One the
// multiplicative identity (the value the One form substitutes for every
// product) and Form the multiply form. The zero Form is general; a
// semiring declaring MulSecond or MulOne must still carry a Mul that
// agrees with it, which is what the general-form kernels (and the
// differential tests) run when Form is reset. MulIndex has no Mul.
type Semiring[T any] struct {
	Add  Monoid[T]
	Mul  BinaryOp[T]
	One  T
	Form MulForm
}

// second is the ⊗ of every second-form semiring.
func second[T any](_, x T) T { return x }

// The operators builtinOf recognises by identity, beside math.Min.
func plusFloat64(a, b float64) float64 { return a + b }

func minUint32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Standard semirings. Each is a constructor rather than a variable so
// callers cannot alias and mutate shared state.

// OrAndBool returns the Boolean semiring ({false,true}, AND, OR, false)
// used by BFS and reachability. Its additive terminal (true) enables
// early-exit, and idempotence makes it safe for structure-only mode.
func OrAndBool() Semiring[bool] {
	t := true
	return Semiring[bool]{
		Add: Monoid[bool]{
			Op:       func(a, b bool) bool { return a || b },
			Identity: false,
			Terminal: &t,
		},
		Mul: func(a, b bool) bool { return a && b },
		One: true,
	}
}

// PlusTimesFloat64 returns the conventional arithmetic semiring, a weighted
// sum over stored edge values. PageRank does not need it: it runs
// plus.second over pre-divided ranks (PlusSecondFloat64).
func PlusTimesFloat64() Semiring[float64] {
	return Semiring[float64]{
		Add: Monoid[float64]{
			Op:       plusFloat64,
			Identity: 0,
		},
		Mul: func(a, b float64) float64 { return a * b },
		One: 1,
	}
}

// MinPlusFloat64 returns the tropical semiring (min, +) with identity +∞,
// used by SSSP (Bellman-Ford). Its terminal is -∞; since edge relaxations
// never produce -∞ the early-exit path stays dormant, matching the paper's
// observation that early-exit is specific to Boolean-like semirings. The
// pull kernels run it as a concrete loop (package doc, "Structure-only").
func MinPlusFloat64() Semiring[float64] {
	neg := math.Inf(-1)
	return Semiring[float64]{
		Add: Monoid[float64]{
			Op:       math.Min,
			Identity: math.Inf(1),
			Terminal: &neg,
		},
		Mul: plusFloat64,
		One: 0,
	}
}

// MinSecondUint32 returns the (min, second) semiring over vertex ids used
// by label propagation (CC): the product of A(i,j) and u(j) is the id
// carried by u(j) (the "second" operand), and min picks a deterministic
// winner among the candidates. Second-form, and a concrete pull loop.
func MinSecondUint32() Semiring[uint32] {
	return Semiring[uint32]{
		Add: Monoid[uint32]{
			Op:       minUint32,
			Identity: ^uint32(0),
		},
		Mul:  second[uint32],
		One:  ^uint32(0),
		Form: MulSecond,
	}
}

// MinIndexUint32 returns the (min, secondi) semiring of parent-tracking
// BFS (LAGraph's any/min.secondi): the product of A(i,j) and u(j) is j
// itself (MulIndex), so each output is its smallest present neighbour and
// u's values are never read. min's annihilator 0 is its terminal, and the
// pull kernel reaches it early: a matrix row is sorted, so the row's first
// present j is its minimum, and the row stops there (Optimization 3;
// Descriptor.NoEarlyExit scans the rest). Index-form, and a concrete pull
// loop.
func MinIndexUint32() Semiring[uint32] {
	zero := uint32(0)
	return Semiring[uint32]{
		Add: Monoid[uint32]{
			Op:       minUint32,
			Identity: ^uint32(0),
			Terminal: &zero,
		},
		One:  ^uint32(0),
		Form: MulIndex,
	}
}

// PlusSecondFloat64 returns the (+, second) semiring: each output sums the
// vector values of its neighbours — path counting in betweenness
// centrality, and PageRank once the ranks are pre-divided by out-degree.
// Second-form, and a concrete pull loop.
func PlusSecondFloat64() Semiring[float64] {
	return Semiring[float64]{
		Add:  Monoid[float64]{Op: plusFloat64},
		Mul:  second[float64],
		One:  1,
		Form: MulSecond,
	}
}

// MaxSecondFloat64 returns the (max, second) semiring: each output is the
// largest vector value among its neighbours (Luby's MIS). The comparison is
// plain >, so inputs must be NaN-free. Second-form.
func MaxSecondFloat64() Semiring[float64] {
	return Semiring[float64]{
		Add: Monoid[float64]{
			Op: func(a, b float64) float64 {
				if a > b {
					return a
				}
				return b
			},
			Identity: math.Inf(-1),
		},
		Mul:  second[float64],
		One:  1,
		Form: MulSecond,
	}
}
