//go:build linux

package serve

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"

	"pushpull/graphblas"
	"pushpull/internal/sparse"
)

// relocate copies m's index arrays into one anonymous mapping — every Ptr,
// then every Ind, so each array starts aligned — and returns the copy with
// its region, which the collector neither scans nor counts toward its goal.
// If the mapping fails, it serves m itself, with a nil region.
func relocate(m *graphblas.Matrix[bool]) (*graphblas.Matrix[bool], []byte) {
	ptrs, inds := patternLens(m)
	page := os.Getpagesize()
	region, err := syscall.Mmap(-1, 0, (8*ptrs+4*inds+page-1)/page*page,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return m, nil
	}
	base := unsafe.Pointer(&region[0])
	return relocateInto(m, unsafe.Slice((*int)(base), ptrs), unsafe.Slice((*uint32)(unsafe.Add(base, 8*ptrs)), inds)), region
}

// unmap returns a region relocate mapped to the OS; a nil region (the
// loaded matrix) is the collector's. Unmapping a region twice panics.
func unmap(region []byte) {
	if region != nil {
		if err := syscall.Munmap(region); err != nil {
			panic(fmt.Sprintf("serve: unmap graph region: %v", err))
		}
	}
}

// patternLens counts the Ptr and the Ind elements of the orientations m
// stores: one for a symmetric matrix, whose CSR is its CSC, two otherwise.
func patternLens(m *graphblas.Matrix[bool]) (ptrs, inds int) {
	ptrs, inds = len(m.CSR().Ptr), len(m.CSR().Ind)
	if !m.Symmetric() {
		ptrs, inds = ptrs+len(m.CSC().Ptr), inds+len(m.CSC().Ind)
	}
	return ptrs, inds
}

// relocateInto copies m's index arrays into ptrs and inds, sized by
// patternLens; any stored values stay shared.
func relocateInto(m *graphblas.Matrix[bool], ptrs []int, inds []uint32) *graphblas.Matrix[bool] {
	return graphblas.Relocate(m, func(c *sparse.CSR[bool]) *sparse.CSR[bool] {
		cp := *c
		cp.Ptr, ptrs = ptrs[:len(c.Ptr):len(c.Ptr)], ptrs[len(c.Ptr):]
		cp.Ind, inds = inds[:len(c.Ind):len(c.Ind)], inds[len(c.Ind):]
		copy(cp.Ptr, c.Ptr)
		copy(cp.Ind, c.Ind)
		return &cp
	})
}
