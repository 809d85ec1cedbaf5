//go:build !linux

package serve

import "pushpull/graphblas"

// relocate copies m's index arrays on the heap: only a Linux build maps a
// region outside it (graphmem_linux.go).
func relocate(m *graphblas.Matrix[bool]) (*graphblas.Matrix[bool], []byte) { return heapCopy(m), nil }

func unmap([]byte) {}
