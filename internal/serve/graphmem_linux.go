//go:build linux

package serve

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"

	"pushpull/graphblas"
)

// relocate copies m's index arrays into one anonymous mapping — every Ptr,
// then every Ind, so each array starts aligned — and returns the copy with
// its region, which the collector neither scans nor counts toward its goal.
// If the mapping fails, the copy is made on the heap and the region is nil.
func relocate(m *graphblas.Matrix[bool]) (*graphblas.Matrix[bool], []byte) {
	ptrs, inds := patternLens(m)
	page := os.Getpagesize()
	region, err := syscall.Mmap(-1, 0, (8*ptrs+4*inds+page-1)/page*page,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return heapCopy(m), nil
	}
	base := unsafe.Pointer(&region[0])
	return relocateInto(m, unsafe.Slice((*int)(base), ptrs), unsafe.Slice((*uint32)(unsafe.Add(base, 8*ptrs)), inds)), region
}

// unmap returns a region relocate mapped to the OS; a nil region (a heap
// copy) is the collector's. Unmapping a region twice panics.
func unmap(region []byte) {
	if region != nil {
		if err := syscall.Munmap(region); err != nil {
			panic(fmt.Sprintf("serve: unmap graph region: %v", err))
		}
	}
}
