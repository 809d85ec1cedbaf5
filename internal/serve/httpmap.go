package serve

import (
	"context"
	"errors"
	"net/http"

	"pushpull/graphblas"
)

// StatusClientClosedRequest is the non-standard status (nginx convention)
// for queries abandoned by the client before completion.
const StatusClientClosedRequest = 499

// StatusBudgetExceeded is the non-standard status for queries cancelled
// by their execution budget. It is deliberately not 504: the deadline the
// client asked for did NOT pass — the server cut the query off for cost —
// and the response body still carries the partial result, which a 5xx
// from the timeout family would invite clients to discard.
const StatusBudgetExceeded = 598

// HTTPStatus maps a query error onto its transport status code. Ordering
// matters: ErrCancelled wraps the context cause, so every mid-run
// cancellation matches ErrCancelled plus its specific cause — the budget
// check runs before the deadline check (a budget trip is a deadline on
// the inner run context) and the deadline check before the generic
// ErrCancelled fallback, so trips surface as 598, timeouts as 504, and
// only genuinely abandoned queries as 499. The two 429 reasons (queue
// full, infeasible deadline) share the status and differ in body detail
// and Retry-After derivation.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrInfeasibleDeadline):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrGraphUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownGraph), errors.Is(err, ErrUnknownAlgorithm):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, graphblas.ErrBudgetExceeded):
		return StatusBudgetExceeded
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, graphblas.ErrCancelled):
		return StatusClientClosedRequest
	default:
		// Kernel faults and anything else unexpected.
		return http.StatusInternalServerError
	}
}

// PublicErrorMessage is the error text safe to put in a response body or
// the /debug/queries listing. Kernel panic errors carry a goroutine stack
// in Error() — that detail belongs in the server log keyed by query id,
// never on the wire — so they collapse to the sentinel's generic text.
func PublicErrorMessage(err error) string {
	if err == nil {
		return ""
	}
	if isKernelPanic(err) {
		return graphblas.ErrKernelPanic.Error()
	}
	return err.Error()
}

func isKernelPanic(err error) bool {
	return errors.Is(err, graphblas.ErrKernelPanic)
}

// minRetrySeconds floors the 429 backoff hint: a shed against an
// empty or unpriced backlog still tells the client to wait this long.
const minRetrySeconds = 1

// maxRetrySeconds caps the hint so one pathological traversal cannot
// tell clients to go away for minutes.
const maxRetrySeconds = 60

// retryHintError decorates a shed error with the prediction-derived
// Retry-After seconds the HTTP layer should send. Unwraps to the shed
// reason, so errors.Is taxonomy matching is unaffected.
type retryHintError struct {
	err     error
	seconds int
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// retryHint wraps err with a Retry-After hint clamped to
// [minRetrySeconds, maxRetrySeconds].
func retryHint(err error, seconds int) error {
	if seconds < minRetrySeconds {
		seconds = minRetrySeconds
	}
	if seconds > maxRetrySeconds {
		seconds = maxRetrySeconds
	}
	return &retryHintError{err: err, seconds: seconds}
}

// RetryAfterHint extracts the Retry-After seconds attached to an
// admission shed: every ErrQueueFull and ErrInfeasibleDeadline error from
// Do carries one.
func RetryAfterHint(err error) (int, bool) {
	var rh *retryHintError
	if errors.As(err, &rh) {
		return rh.seconds, true
	}
	return 0, false
}
