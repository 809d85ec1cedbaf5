package graphblas

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// smallBoolMatrix builds a tiny ring graph for fault-path tests.
func smallBoolMatrix(t *testing.T, n int) *Matrix[bool] {
	t.Helper()
	var r, c []uint32
	var v []bool
	for i := 0; i < n; i++ {
		r = append(r, uint32(i))
		c = append(c, uint32((i+1)%n))
		v = append(v, true)
	}
	m, err := NewMatrixFromCOO(n, n, r, c, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCheckContext(t *testing.T) {
	if err := CheckContext(nil); err != nil {
		t.Fatalf("nil context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := CheckContext(ctx); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	err := CheckContext(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled context: %v does not match ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v does not wrap the context cause", err)
	}
}

func TestPanicErrorMatchesSentinel(t *testing.T) {
	pe := NewPanicError("kaboom")
	if !errors.Is(pe, ErrKernelPanic) {
		t.Fatal("PanicError does not match ErrKernelPanic")
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("Error() = %q, want the panic value", pe.Error())
	}
}

// TestMxVCancelledBeforeKernel: a pre-cancelled Descriptor.Context aborts
// MxV at the first phase boundary, under Auto and under either forced
// direction.
func TestMxVCancelledBeforeKernel(t *testing.T) {
	a := smallBoolMatrix(t, 8)
	sr := OrAndBool()
	u := NewVector[bool](8)
	_ = u.SetElement(0, true)
	w := NewVector[bool](8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, dir := range []Direction{Auto, ForcePush, ForcePull} {
		desc := &Descriptor{Context: ctx, Direction: dir}
		if _, err := Into(w).With(desc).MxV(sr, a, u); !errors.Is(err, ErrCancelled) {
			t.Fatalf("Descriptor.Context, direction %v: err = %v, want ErrCancelled", dir, err)
		}
	}
	// A live context must not disturb the call.
	live := &Descriptor{Context: context.Background()}
	if _, err := Into(w).With(live).MxV(sr, a, u); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// TestPipelineOpsCancelled: every pipeline op family honours a cancelled
// Descriptor.Context.
func TestPipelineOpsCancelled(t *testing.T) {
	n := 8
	u := NewVector[float64](n)
	w := NewVector[float64](n)
	for i := 0; i < n; i++ {
		_ = u.SetElement(i, float64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	desc := &Descriptor{Context: ctx}
	id := func(x float64) float64 { return x }

	cases := []struct {
		name string
		call func() error
	}{
		{"Apply", func() error { return Into(w).With(desc).Apply(id, u) }},
		{"Select", func() error {
			return Into(w).With(desc).Select(func(i int, x float64) bool { return true }, u)
		}},
		{"AssignVector", func() error { return Into(w).With(desc).AssignVector(u) }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrCancelled) {
			t.Errorf("%s: err = %v, want ErrCancelled", tc.name, err)
		}
	}
}

// TestUserOperatorPanicBecomesError: a panic inside a user-supplied operator
// must come back as an error matching ErrKernelPanic — never unwind into the
// caller — and the operation surface must keep working afterwards.
func TestUserOperatorPanicBecomesError(t *testing.T) {
	n := 8
	u := NewVector[float64](n)
	for i := 0; i < n; i++ {
		_ = u.SetElement(i, float64(i))
	}
	w := NewVector[float64](n)
	boom := func(float64) float64 { panic("operator boom") }

	// Non-aliased path (exec pipeline capture).
	err := Into(w).Apply(boom, u)
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("Apply: err = %v, want ErrKernelPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "operator boom" || len(pe.Stack) == 0 {
		t.Fatalf("Apply: errors.As gave %+v", pe)
	}

	// In-place aliased fast path (direct capture).
	alias := u.Dup()
	if err := Into(alias).Apply(boom, alias); !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("in-place Apply: err = %v, want ErrKernelPanic", err)
	}

	// The surface must still work: same op with a sane operator.
	if err := Into(w).Apply(func(x float64) float64 { return x * 2 }, u); err != nil {
		t.Fatalf("Apply after fault: %v", err)
	}
	got, _ := w.ExtractElement(3)
	if got != 6 {
		t.Fatalf("post-fault Apply produced %v, want 6", got)
	}
}

// TestPanickedWorkspaceIsQuarantined: a fault under a pinned workspace must
// taint it — the descriptor falls back to fresh scratch and Release drops
// the arena — while later operations on the same descriptor stay correct.
func TestPanickedWorkspaceIsQuarantined(t *testing.T) {
	n := 8
	a := smallBoolMatrix(t, n)
	sr := OrAndBool()
	u := NewVector[bool](n)
	_ = u.SetElement(0, true)
	w := NewVector[bool](n)

	ws := AcquireWorkspace(n, n)
	defer ws.Release() // after the fault this is a documented no-op
	desc := &Descriptor{Workspace: ws}

	fu := NewVector[float64](n)
	for i := 0; i < n; i++ {
		_ = fu.SetElement(i, float64(i))
	}
	fw := NewVector[float64](n)
	boom := func(float64) float64 { panic("ws boom") }
	if err := Into(fw).With(desc).Apply(boom, fu); !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("err = %v, want ErrKernelPanic", err)
	}
	if !ws.tainted {
		t.Fatal("workspace not tainted after kernel panic")
	}
	if desc.workspace() != nil {
		t.Fatal("descriptor still hands out the tainted workspace")
	}

	// Later ops through the same descriptor fall back to pooled scratch and
	// must be correct.
	if _, err := Into(w).With(desc).MxV(sr, a, u); err != nil {
		t.Fatalf("MxV after fault: %v", err)
	}
	if w.NVals() != 1 {
		t.Fatalf("post-fault MxV nvals = %d, want 1", w.NVals())
	}
	if got, err := w.ExtractElement(n - 1); err != nil || !got {
		t.Fatal("post-fault MxV lost the ring edge 0→n-1 transposed result")
	}
}
