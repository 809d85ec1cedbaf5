// Package faultinject is the test-only fault-injection registry behind the
// robustness stress suite. Production builds compile the no-op variant
// (fire sites inline to nothing); building with `-tags faultinject` swaps in
// the real registry so tests can arm a panic at the Nth dispatched chunk, a
// delay inside a kernel phase, or a context cancellation mid-iteration, and
// then assert the substrate survives: no deadlock, no worker leak, no
// poisoned pool entries.
//
// The registry is deliberately tiny: a site fires at most one armed action,
// exactly once, on the Nth call. Anything richer (sequences, probabilities)
// belongs in the test that arms it.
package faultinject

// Instrumentation sites compiled into the hot paths. Constants exist in both
// build variants so callers never need their own tag-gated references.
const (
	// SiteParChunk fires once per chunk claimed by internal/par's dispatch
	// loop, inside the chunk's recover scope — an armed panic here exercises
	// the first-fault capture and drain path.
	SiteParChunk = "par.chunk"

	// SiteMxVKernel fires once per MxV kernel phase in the graphblas layer,
	// between planning and kernel execution — an armed delay or context
	// cancellation here exercises the between-phase abort path.
	SiteMxVKernel = "graphblas.mxv.kernel"

	// SiteServeLoad fires once per graph-source load in the serving
	// lifecycle (initial load and every reload attempt), inside the
	// recover scope that converts a panic into a load error — an armed
	// panic here exercises the degraded-start and reload-rollback paths
	// without needing a corrupt file on disk.
	SiteServeLoad = "serve.lifecycle.load"

	// SiteServeValidate fires once per snapshot validation (the
	// dimension/CSR-CSC parity checks plus the smoke traversal that gate
	// every snapshot before it swaps in) — an armed panic here exercises a
	// graph that loads but fails validation: the reload must roll back and
	// the old snapshot must keep serving.
	SiteServeValidate = "serve.lifecycle.validate"
)
