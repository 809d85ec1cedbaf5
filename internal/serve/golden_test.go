package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"pushpull/internal/par"
)

// TestGoldenChecksums pins the payload checksums to the values the
// hash/fnv-based fold produced before the checksum was inlined and before
// ParentBFS, CC and PageRank moved onto pattern views: bench/ppload's
// oracle compares against these bits, so they may never drift. Identical
// at one and two workers.
//
// The PageRank goldens were recorded on amd64, whose compiler does not fuse
// a·b+c; an architecture that does (arm64, ppc64le, s390x, riscv64) may
// round the power iteration differently, so they are checked on amd64 only.
func TestGoldenChecksums(t *testing.T) {
	type golden struct {
		algo                            string
		checksum                        string
		reached, components, iterations int
	}
	for _, tc := range []struct {
		scale int
		want  []golden
	}{
		{12, []golden{
			{"bfs", "61db60ec814c242b", 3314, 0, 5},
			{"parentbfs", "97e2b89915b53b83", 3314, 0, 0},
			{"sssp", "1800800bf5681580", 3314, 0, 0},
			{"cc", "88c07ebeea50ab13", 4096, 782, 0},
			{"pagerank", "3c350a8e97572549", 4096, 0, 21},
		}},
		{14, []golden{
			{"bfs", "aaf07e98f66ac78f", 12524, 0, 5},
			{"parentbfs", "05ae831e544f86e0", 12524, 0, 0},
			{"sssp", "58671cfd2ece4a6b", 12524, 0, 0},
			{"cc", "423f2db292d2b656", 16384, 3858, 0},
			{"pagerank", "c6cfb617bbe08fd9", 16384, 0, 20},
		}},
	} {
		g := kronGraph(t, tc.scale)
		for _, procs := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				defer par.SetMaxWorkers(par.SetMaxWorkers(procs))
				srv, err := New(Config{Workers: procs}, g)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				for _, want := range tc.want {
					if want.algo == "pagerank" && runtime.GOARCH != "amd64" {
						continue
					}
					res, err := srv.Do(context.Background(), Request{Graph: "kron", Algo: want.algo, Source: 3})
					if err != nil {
						t.Fatalf("kron:%d %s: %v", tc.scale, want.algo, err)
					}
					p := res.Payload
					got := golden{want.algo, fmt.Sprintf("%016x", p.Checksum), p.Reached, p.Components, p.Iterations}
					if got != want {
						t.Errorf("kron:%d procs=%d: got %+v, want %+v", tc.scale, procs, got, want)
					}
				}
			}()
		}
	}
}

// TestChecksumMatchesHashFNV checks the inlined fold against hash/fnv fed
// the same little-endian bytes, for every element width the payloads use.
func TestChecksumMatchesHashFNV(t *testing.T) {
	ref := func(width int, words []uint64) uint64 {
		h := fnv.New64a()
		for _, w := range words {
			for i := 0; i < width; i++ {
				h.Write([]byte{byte(w >> (8 * i))})
			}
		}
		return h.Sum64()
	}
	i32 := []int32{0, -1, 7, math.MinInt32, math.MaxInt32}
	u32 := []uint32{0, 1, math.MaxUint32, 0x01020304}
	i64 := []int64{-1, 0, 42, math.MinInt64, 0x0102030405060708}
	f64 := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.NaN()}
	// sx32 is what the runners hand fnvFold for an int32: sign-extended,
	// the fold reading its low four bytes only.
	var w32, sx32, wu32, w64, wf64 []uint64
	for _, v := range i32 {
		w32 = append(w32, uint64(uint32(v)))
		sx32 = append(sx32, uint64(v))
	}
	for _, v := range u32 {
		wu32 = append(wu32, uint64(v))
	}
	for _, v := range i64 {
		w64 = append(w64, uint64(v))
	}
	for _, v := range f64 {
		wf64 = append(wf64, math.Float64bits(v))
	}
	fold := func(width uintptr, words []uint64) uint64 {
		h := uint64(fnvOffset64)
		for _, w := range words {
			h = fnvFold(h, w, width)
		}
		return h
	}
	if got, want := fold(4, sx32), ref(4, w32); got != want {
		t.Errorf("int32: %x, hash/fnv %x", got, want)
	}
	if got, want := fold(4, wu32), ref(4, wu32); got != want {
		t.Errorf("uint32: %x, hash/fnv %x", got, want)
	}
	if got, want := fold(8, w64), ref(8, w64); got != want {
		t.Errorf("int64: %x, hash/fnv %x", got, want)
	}
	if got, want := checksumFloat64(f64), ref(8, wf64); got != want {
		t.Errorf("float64: %x, hash/fnv %x", got, want)
	}
	if got, want := fold(4, nil), fnv.New64a().Sum64(); got != want {
		t.Errorf("empty: %x, hash/fnv %x", got, want)
	}
}
