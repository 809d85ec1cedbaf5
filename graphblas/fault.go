package graphblas

import (
	"context"
	"fmt"
	"runtime/debug"

	"pushpull/internal/par"
)

// This file is the operation layer's fault boundary. Two failure modes cross
// it:
//
//   - Cancellation: an operation run under a Descriptor.Context checks the
//     context between kernel phases and returns a wrapped ErrCancelled;
//     parallel kernels additionally stop claiming chunks once the
//     descriptor's cancellation token trips. The
//     output vector is left structurally valid but with unspecified partial
//     contents; workspaces stay clean and poolable.
//   - Kernel panic: a panic in a kernel body or user-supplied operator —
//     recovered by par on whichever worker ran the chunk and re-raised on
//     the dispatching goroutine — is converted here into a *PanicError
//     (matching ErrKernelPanic) instead of unwinding into the caller. The
//     workspace the call ran on is tainted so its scratch, whose internal
//     invariants may be mid-mutation, is dropped rather than returned to a
//     sync.Pool.

// PanicError is the error operations return when a kernel body or
// user-supplied operator panicked. It matches ErrKernelPanic under
// errors.Is; retrieve it with errors.As to inspect the panic value and the
// stack of the goroutine the panic happened on.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack captured at recover time, inside the failing body
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("graphblas: kernel panic: %v\n%s", e.Value, e.Stack)
}

// Is reports target == ErrKernelPanic, so errors.Is works without exposing
// the concrete type.
func (e *PanicError) Is(target error) bool { return target == ErrKernelPanic }

// NewPanicError converts a recovered panic value into a *PanicError,
// unwrapping par's chunk-level capture so the stack points into the failing
// loop body rather than the dispatcher that re-raised it. Exported for
// algorithm layers that drive core kernels directly and recover their own
// faults.
func NewPanicError(r any) *PanicError {
	if pe, ok := r.(*par.PanicError); ok {
		return &PanicError{Value: pe.Value, Stack: pe.Stack}
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// CheckContext returns nil while ctx is live and a wrapped ErrCancelled
// (also matching the context's cancel cause under errors.Is) once it is
// done. The cause is context.Cause, not ctx.Err(): a context cancelled
// with an explicit cause — a serving layer's ErrBudgetExceeded, for
// example — surfaces that cause through the wrap, while plain timeouts and
// cancellations keep returning context.DeadlineExceeded / Canceled
// (Cause falls back to Err when none was set). A nil ctx always passes.
// The live path is allocation-free — it is called on zero-alloc
// steady-state hot paths — and only the cancelled path builds an error.
func CheckContext(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
	}
	return nil
}

// captureFault is deferred around kernel execution: it recovers a panic
// (re-raised by par's dispatcher, or raw from an inline body or user
// operator), taints ws so no possibly-corrupted scratch returns to a pool,
// and stores the fault into *errp as a *PanicError. ws may be nil when the
// call never acquired one.
func captureFault(ws *Workspace, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	ws.taint()
	*errp = NewPanicError(r)
}

// captureFault is the exec-pipeline form: it taints whatever workspace the
// call ended up acquiring (possibly none).
func (e *exec[T]) captureFault(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	e.ws.taint()
	*errp = NewPanicError(r)
}
