package graphblas

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pushpull/internal/core"
)

// TestMxVShardedDifferential fuzzes the range-sharded pipeline against the
// dense map oracle across shard counts (including degenerate ones: more
// shards than vertices, shards smaller than a bitset word), forced and
// hybrid directions, every mask kind and the accumulate path. The sharded
// result must be value-identical to the unsharded semantics — sharding is
// an execution strategy, never a semantics change.
func TestMxVShardedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := MinPlusFloat64()
	accumOp := s.Add.Op

	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(40)
		a := randMatrix(rng, n, n, 0.1+rng.Float64()*0.3)
		base := randVec(rng, n, 0.2+rng.Float64()*0.6)

		mask := NewVector[bool](n)
		var allow []uint32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				_ = mask.SetElement(i, true)
			} else {
				allow = append(allow, uint32(i))
			}
		}
		w0 := randVec(rng, n, 0.3)

		shardCounts := []int{1, 2, 7, runtime.NumCPU() + 1, n + 3}
		for _, shards := range shardCounts {
			for _, format := range []Format{Sparse, Bitset} {
				for _, dir := range []Direction{Auto, ForcePush, ForcePull} {
					for maskKind := 0; maskKind < 4; maskKind++ {
						for _, withAccum := range []bool{false, true} {
							name := fmt.Sprintf("trial %d shards=%d fmt=%v dir=%v mask=%d accum=%v", trial, shards, format, dir, maskKind, withAccum)
							u := inFormat(base, format)
							desc := &Descriptor{Direction: dir, Shards: shards}
							var m *Vector[bool]
							scmp := false
							switch maskKind {
							case 1:
								m = mask
							case 2, 3:
								m = mask
								scmp = true
								desc.StructuralComplement = true
								if maskKind == 3 {
									desc.MaskAllowList = allow
								}
							}

							want := oracleMxV(a, base, m, scmp, false, s)
							var accum BinaryOp[float64]
							w := NewVector[float64](n)
							if withAccum {
								accum = accumOp
								w = w0.Dup()
								want = oracleMerge(vecToMap(w0), want, accumOp)
							}
							if _, err := Into(w).Mask(m).Accum(accum).With(desc).MxV(s, a, u); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							vecEquals(t, name, w, want)
						}
					}
				}
			}
		}
	}
}

// TestMxVShardedTranspose exercises the transposed orientation's shard
// cache key: Aᵀ sharding must split the column space and cut the CSR.
func TestMxVShardedTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := MinPlusFloat64()
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		a := randMatrix(rng, n, n, 0.2)
		u := randVec(rng, n, 0.4)
		for _, shards := range []int{3, 8} {
			desc := &Descriptor{Transpose: true, Shards: shards}
			want := oracleMxV(a, u, nil, false, true, s)
			w := NewVector[float64](n)
			if _, err := Into(w).With(desc).MxV(s, a, u); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
			}
			vecEquals(t, fmt.Sprintf("trial %d transpose shards=%d", trial, shards), w, want)
		}
	}
}

// TestMxVShardedPlanRecord checks the plan surface: per-shard entries
// covering the whole output range, the sharded rule, and hybrid detection
// consistent with the entries.
func TestMxVShardedPlanRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 200
	a := randMatrix(rng, n, n, 0.05)
	u := randVec(rng, n, 0.1)
	var plan core.Plan
	desc := &Descriptor{Shards: 8, Plan: &plan}
	w := NewVector[float64](n)
	if _, err := Into(w).With(desc).MxV(MinPlusFloat64(), a, u); err != nil {
		t.Fatal(err)
	}
	if plan.Rule != core.RuleSharded {
		t.Fatalf("rule = %q, want %q", plan.Rule, core.RuleSharded)
	}
	if len(plan.Shards) != 8 {
		t.Fatalf("got %d shard entries, want 8", len(plan.Shards))
	}
	pulls, prev := 0, 0
	for i, sp := range plan.Shards {
		if sp.Lo != prev {
			t.Fatalf("shard %d starts at %d, want %d (ranges must tile the output)", i, sp.Lo, prev)
		}
		if sp.Hi <= sp.Lo {
			t.Fatalf("shard %d empty range [%d,%d)", i, sp.Lo, sp.Hi)
		}
		prev = sp.Hi
		if sp.Dir == core.Pull {
			pulls++
		}
	}
	if prev != n {
		t.Fatalf("shards end at %d, want %d", prev, n)
	}
	if wantHybrid := pulls > 0 && pulls < 8; plan.Hybrid != wantHybrid {
		t.Fatalf("Hybrid = %v with %d/8 pull shards", plan.Hybrid, pulls)
	}
	if plan.MeasuredNs <= 0 {
		t.Fatalf("MeasuredNs = %v, want > 0 on a plan-sink run", plan.MeasuredNs)
	}
}

// TestMxVShardedExactEdgesFromPackedFrontier pins that per-shard planning
// evidence does not degrade when the frontier arrives word-packed or as a
// bitmap — the common mid-traversal case after a pull decision settled the
// input's format. The recorded shard Edges must equal the sparse-frontier
// run's exact cut sums, not the density×InEdges estimate (which assumes
// average out-degrees and underprices push badly on skewed graphs).
func TestMxVShardedExactEdgesFromPackedFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 300
	a := randMatrix(rng, n, n, 0.04)
	u := randVec(rng, n, 0.05) // sparse enough to stay under the expansion bound
	sr := MinPlusFloat64()

	run := func(in *Vector[float64]) []float64 {
		var plan core.Plan
		desc := &Descriptor{Shards: 6, Plan: &plan}
		w := NewVector[float64](n)
		if _, err := Into(w).With(desc).MxV(sr, a, in); err != nil {
			t.Fatal(err)
		}
		edges := make([]float64, len(plan.Shards))
		for i, sp := range plan.Shards {
			edges[i] = sp.Edges
		}
		return edges
	}

	want := run(u)
	for _, convert := range []struct {
		name string
		prep func(v *Vector[float64])
	}{
		{"bitset", func(v *Vector[float64]) { v.ToBitset() }},
		{"bitmap", func(v *Vector[float64]) { v.ToBitmap() }},
	} {
		v := u.Dup()
		convert.prep(v)
		got := run(v)
		if len(got) != len(want) {
			t.Fatalf("%s: %d shard entries, want %d", convert.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: shard %d edges %g, want exact %g", convert.name, i, got[i], want[i])
			}
		}
	}
}

// TestMxVShardedForcedUniform pins Direction and checks every shard obeys.
func TestMxVShardedForcedUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 100
	a := randMatrix(rng, n, n, 0.08)
	u := randVec(rng, n, 0.3)
	for _, dir := range []Direction{ForcePush, ForcePull} {
		var plan core.Plan
		desc := &Descriptor{Shards: 4, Direction: dir, Plan: &plan}
		w := NewVector[float64](n)
		if _, err := Into(w).With(desc).MxV(MinPlusFloat64(), a, u); err != nil {
			t.Fatal(err)
		}
		wantDir := core.Push
		if dir == ForcePull {
			wantDir = core.Pull
		}
		for i, sp := range plan.Shards {
			if sp.Dir != wantDir {
				t.Fatalf("forced %v: shard %d chose %v", dir, i, sp.Dir)
			}
		}
		if plan.Hybrid {
			t.Fatalf("forced %v: plan reports hybrid", dir)
		}
	}
}

// TestMxVShardedZeroAlloc pins the steady state: after one warm-up call
// (shard geometry, plan scratch and corrector keys all materialize once),
// repeated sharded MxV calls on a pinned workspace allocate nothing —
// including with the full telemetry surface (plan sink + corrector +
// calibrated model) attached.
func TestMxVShardedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 1 << 12
	var ri, ci []uint32
	var vals []bool
	for i := 0; i < n; i++ {
		for d := 0; d < 4; d++ {
			ri = append(ri, uint32(i))
			ci = append(ci, uint32(rng.Intn(n)))
			vals = append(vals, true)
		}
	}
	a, err := NewMatrixFromCOO(n, n, ri, ci, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := NewVector[bool](n)
	for i := 0; i < n; i += 20 {
		_ = u.SetElement(i, true)
	}
	u.ToSparse()
	visited := NewVector[bool](n)
	for i := 0; i < n; i += 3 {
		_ = visited.SetElement(i, true)
	}

	ws := AcquireWorkspace(n, n)
	defer ws.Release()
	model := core.CostModel{GatherNs: 1, ProbeBoolNs: 1, ProbeWordNs: 1, ProbeDenseNs: 1, RowNs: 1, ScatterNs: 1, ClearNs: 1, SortNs: 1, SetupNs: 50, StitchNs: 200}
	var corr core.Corrector
	var plan core.Plan
	desc := &Descriptor{
		Shards:               6,
		StructuralComplement: true,
		StructureOnly:        true,
		Workspace:            ws,
		CostModel:            &model,
		Corrector:            &corr,
		Plan:                 &plan,
	}
	s := OrAndBool()
	w := NewVector[bool](n)
	run := func() {
		if _, err := Into(w).Mask(visited).With(desc).MxV(s, a, u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm-up: geometry cache, plan scratch, corrector keys, output buffers
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("sharded MxV steady state allocates %v allocs/op, want 0", avg)
	}
}
