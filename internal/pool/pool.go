// Package pool provides dimension-keyed object pooling: objects are
// interchangeable exactly when they serve the same shape, which keeps every
// pooled buffer at its steady-state size instead of thrashing between
// differently-sized graphs. Its users are graphblas workspaces (keyed by
// matrix shape, kernel arena included) and internal/serve's result arrays.
package pool

import "sync"

type dims struct{ rows, cols int }

// Dim is a set of sync.Pools keyed by (rows, cols). The zero value is not
// usable; construct with NewDim.
type Dim[T any] struct {
	mu    sync.RWMutex
	pools map[dims]*sync.Pool
	newFn func(rows, cols int) T
}

// NewDim returns a dimension-keyed pool whose dry-pool misses are filled by
// newFn.
func NewDim[T any](newFn func(rows, cols int) T) *Dim[T] {
	return &Dim[T]{pools: make(map[dims]*sync.Pool), newFn: newFn}
}

func (d *Dim[T]) poolFor(rows, cols int) *sync.Pool {
	key := dims{rows, cols}
	d.mu.RLock()
	p := d.pools[key]
	d.mu.RUnlock()
	if p == nil {
		d.mu.Lock()
		if p = d.pools[key]; p == nil {
			p = &sync.Pool{New: func() any { return d.newFn(rows, cols) }}
			d.pools[key] = p
		}
		d.mu.Unlock()
	}
	return p
}

// Acquire takes an object for the given shape, creating one if the pool is
// dry. Pair with Put.
func (d *Dim[T]) Acquire(rows, cols int) T {
	return d.poolFor(rows, cols).Get().(T)
}

// Put returns an object to its shape's pool; the caller must not use it
// afterwards. Objects constructed outside Acquire may be Put too — this is
// how unpooled workspaces donate their warm buffers on release.
func (d *Dim[T]) Put(rows, cols int, v T) {
	d.poolFor(rows, cols).Put(v)
}
