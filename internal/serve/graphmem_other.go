//go:build !linux

package serve

import "pushpull/graphblas"

// relocate serves the loaded matrix itself: only a Linux build maps a
// region outside the heap (graphmem_linux.go). On the heap a copy would
// only double the load's transient memory; the matrix is immutable, so
// generations may share it.
func relocate(m *graphblas.Matrix[bool]) (*graphblas.Matrix[bool], []byte) { return m, nil }

func unmap([]byte) {}
