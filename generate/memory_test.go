package generate_test

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"pushpull/generate"
)

// TestBuildTransientMemory bounds what constructing a graph allocates, as a
// multiple of what it keeps — Ptr and Ind; a pattern stores no values. The
// packed edge list, the builder's two counting passes (one 4-byte word per
// entry bucketed by column, then Ptr and Ind at exactly their final size)
// and their per-span counters come to 3.5–3.8× that on kron:14, more spans
// costing more counters; the triple-slice + radix-permutation path the
// edge-list builder replaced allocated 11× (of arrays that then included a
// value per entry), and a materialised transpose alone would add another 1×.
func TestBuildTransientMemory(t *testing.T) {
	build := dataset(14, "kron")
	if _, err := build(); err != nil { // warm: par workers, one-time runtime state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	csr := g.CSR()
	if csr.Val != nil {
		t.Error("a generated graph must be pattern-only")
	}
	kept := uint64(len(csr.Ptr))*uint64(unsafe.Sizeof(csr.Ptr[0])) + 4*uint64(len(csr.Ind))
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 4*kept {
		t.Errorf("building kron:14 allocated %d bytes, %.1f× the %d it keeps; want at most 4×",
			allocated, float64(allocated)/float64(kept), kept)
	}
	if !g.Symmetric() || g.CSC() != csr {
		t.Error("an undirected graph must serve its CSR as its CSC, not a second copy")
	}

	wm, err := generate.WeightedCopy(g, 1, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	w := wm.CSR()
	if &w.Ptr[0] != &csr.Ptr[0] || &w.Ind[0] != &csr.Ind[0] {
		t.Error("WeightedCopy must share the pattern's Ptr and Ind, not copy them")
	}
	if wm.CSC() != w {
		t.Error("the weighted copy of a symmetric pattern must alias its own CSC")
	}
}

// peakChild is the argument that makes TestBuildPeakResident's re-executed
// test binary do the build instead of spawning another one.
const peakChild = "build-peak-child"

// TestBuildPeakResident bounds what a graph load holds resident at its peak,
// as a multiple of what it keeps, in a fresh process: VmHWM, the kernel's
// high-water mark, only grows, so it must start from a process that has
// built nothing. The builder gives the consumed edge list back to the OS
// before it allocates Ind, so the peak is the list and byCol, then byCol and
// the result: ≈ 2.4× on kron:16, against ≈ 3.6× with all three live. The
// result must also be exactly its final size (no slack in Ind).
func TestBuildPeakResident(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is read from /proc/self/status")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the mark")
	}
	if flag.Arg(0) != peakChild {
		out, err := exec.Command(os.Args[0], "-test.run=^TestBuildPeakResident$", "-test.count=1", "-test.v", peakChild).CombinedOutput()
		if err != nil {
			t.Fatalf("build in a fresh process: %v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	before := vmHWM(t)
	g, err := dataset(16, "kron")()
	if err != nil {
		t.Fatal(err)
	}
	grown := vmHWM(t) - before
	csr := g.CSR()
	if cap(csr.Ind) != len(csr.Ind) {
		t.Errorf("Ind has capacity %d for %d entries; want exactly its final size", cap(csr.Ind), len(csr.Ind))
	}
	kept := uint64(len(csr.Ptr))*uint64(unsafe.Sizeof(csr.Ptr[0])) + 4*uint64(len(csr.Ind))
	ratio := float64(grown) / float64(kept)
	t.Logf("kron:16 at GOMAXPROCS=%d: VmHWM grew %d bytes, %.2f× the %d it keeps", runtime.GOMAXPROCS(0), grown, ratio, kept)
	if ratio > 2.8 {
		t.Errorf("building kron:16 raised the resident peak %.2f× what it keeps; want at most 2.8×", ratio)
	}
}

// vmHWM reads the process's peak resident set size in bytes.
func vmHWM(t *testing.T) uint64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(string(status), "VmHWM:")
	kb, _, _ := strings.Cut(line, "kB")
	n, err := strconv.ParseUint(strings.TrimSpace(kb), 10, 64)
	if err != nil {
		t.Fatalf("no VmHWM in /proc/self/status: %v", err)
	}
	return n << 10
}
