package core

import (
	"math/rand"
	"testing"

	"pushpull/internal/sparse"
)

func TestPlannerCostModelBasics(t *testing.T) {
	// Tiny frontier on a big graph: push wins outright.
	p := DecideDirection(PlanInput{
		NNZ: 1, N: 10000, OutRows: 10000,
		PushEdges: 20, AvgDeg: 20, MaskAllowFrac: 1,
	}, nil)
	if p.Dir != Push || p.Rule != RuleCostModel {
		t.Fatalf("tiny frontier: %+v", p)
	}
	if p.PushCost >= p.PullCost {
		t.Fatalf("tiny frontier costs inverted: push %g pull %g", p.PushCost, p.PullCost)
	}

	// Near-full frontier: the merge's log factor makes pull cheaper.
	p = DecideDirection(PlanInput{
		NNZ: 9000, N: 10000, OutRows: 10000,
		PushEdges: 180000, AvgDeg: 20, MaskAllowFrac: 1,
	}, nil)
	if p.Dir != Pull {
		t.Fatalf("dense frontier should pull: %+v", p)
	}

	// The same dense frontier with a nearly-exhausted mask: pull's work
	// collapses with the allow fraction and push wins again.
	p = DecideDirection(PlanInput{
		NNZ: 9000, N: 10000, OutRows: 10000,
		PushEdges: 18000, AvgDeg: 20, MaskAllowFrac: 0.001,
	}, nil)
	if p.PullCost >= p.PushCost {
		t.Fatalf("mask discount missing: push %g pull %g", p.PushCost, p.PullCost)
	}
}

func TestPlannerEstimatesPushEdgesWhenUnknown(t *testing.T) {
	p := DecideDirection(PlanInput{
		NNZ: 100, N: 1000, OutRows: 1000,
		PushEdges: -1, AvgDeg: 8, MaskAllowFrac: 1,
	}, nil)
	if p.PushCost <= 0 {
		t.Fatalf("estimated push cost missing: %+v", p)
	}
}

func TestPlannerHysteresisTrendGate(t *testing.T) {
	var st PlanState
	in := PlanInput{N: 1000, OutRows: 1000, AvgDeg: 10, MaskAllowFrac: 1}

	// Prime at push with a small frontier.
	in.NNZ, in.PushEdges = 10, 100
	if p := DecideDirection(in, &st); p.Dir != Push {
		t.Fatalf("priming decision: %+v", p)
	}
	// A *shrinking* frontier must not switch push→pull even if pull's
	// estimate momentarily undercuts (growing gate).
	in.NNZ, in.PushEdges = 5, 2_000_000
	p := DecideDirection(in, &st)
	if p.Dir != Push {
		t.Fatalf("shrinking frontier flipped to pull: %+v", p)
	}
	if p.Growing || !p.Shrinking {
		t.Fatalf("trend flags wrong: %+v", p)
	}
	// Growing past the crossover switches.
	in.NNZ, in.PushEdges = 600, 6000*3
	p = DecideDirection(in, &st)
	if p.Dir != Pull || !p.Growing {
		t.Fatalf("growing frontier should pull: %+v", p)
	}
	// And a growing frontier must not bounce pull→push (shrinking gate).
	in.NNZ, in.PushEdges = 700, 70
	if p := DecideDirection(in, &st); p.Dir != Pull {
		t.Fatalf("growing frontier bounced back to push: %+v", p)
	}

	st.Reset()
	if st.Primed {
		t.Fatal("Reset left state primed")
	}
}

func TestPlannerForcedRecordsCosts(t *testing.T) {
	f := Pull
	p := DecideDirection(PlanInput{
		NNZ: 1, N: 1000, OutRows: 1000, PushEdges: 3, AvgDeg: 10,
		MaskAllowFrac: 1, Force: &f,
	}, nil)
	if p.Dir != Pull || p.Rule != RuleForced {
		t.Fatalf("force ignored: %+v", p)
	}
	if p.PushCost <= 0 || p.PullCost <= 0 {
		t.Fatalf("forced plan lost its cost estimates: %+v", p)
	}
}

func TestPlannerBitmapOutputAdvice(t *testing.T) {
	// Gathered edges ≥ a quarter of the output rows → scatter, not sort.
	p := DecideDirection(PlanInput{
		NNZ: 100, N: 1000, OutRows: 1000, PushEdges: 400, AvgDeg: 4, MaskAllowFrac: 1,
	}, nil)
	if p.Dir == Push && !p.PushOutBitmap {
		t.Fatalf("dense push output should advise bitmap: %+v", p)
	}
	p = DecideDirection(PlanInput{
		NNZ: 3, N: 1000, OutRows: 1000, PushEdges: 12, AvgDeg: 4, MaskAllowFrac: 1,
	}, nil)
	if p.PushOutBitmap {
		t.Fatalf("sparse push output should stay a sorted list: %+v", p)
	}
}

// TestHubFirstLevelRunsThePricedPushVariant: a single hub's first level
// gathers past BitmapOutFraction, where the plan prices the scatter against
// the sort. The advice must follow the variant charged, so PushCost, Work
// and PredictedNs describe the kernel MxV runs.
func TestHubFirstLevelRunsThePricedPushVariant(t *testing.T) {
	in := PlanInput{NNZ: 1, N: 10000, OutRows: 10000, PushEdges: 4000, AvgDeg: 16, MaskAllowFrac: 1}

	// Unit model: one input sorts in log₂3 < 2 passes, cheaper than a
	// 2-access scatter plus the 10,000-slot clear.
	p := DecideDirection(in, nil)
	if p.Dir != Push || p.PushOutBitmap {
		t.Fatalf("unit model: want a sorted push, got %+v", p)
	}
	if p.Work[TermScatter] != 0 || p.Work[TermSort] == 0 {
		t.Fatalf("unit model: Work %v is not the sort's", p.Work)
	}
	if got := UnitModel.Price(p.Work); got != p.PushCost {
		t.Fatalf("unit model: Price(Work) %g, PushCost %g", got, p.PushCost)
	}

	// A machine whose sort pass costs four gathers: the scatter wins.
	in.Model = CostModel{GatherNs: 1, ProbeWordNs: 1, SortNs: 4, ScatterNs: 1, ClearNs: 0.1}
	p = DecideDirection(in, nil)
	if p.Dir != Push || !p.PushOutBitmap {
		t.Fatalf("calibrated: want a scattering push, got %+v", p)
	}
	if p.Work[TermScatter] != in.PushEdges || p.Work[TermSort] != 0 {
		t.Fatalf("calibrated: Work %v is not the scatter's", p.Work)
	}
	if got := in.Model.Price(p.Work); got != p.PushCost || got != p.PredictedNs {
		t.Fatalf("calibrated: Price(Work) %g, PushCost %g, PredictedNs %g", got, p.PushCost, p.PredictedNs)
	}
}

// TestColMxvBitmapMatchesSparsePath cross-checks the sort-free scatter
// kernel against the radix pipeline for every view kind and mask shape.
func TestColMxvBitmapMatchesSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sr := plusTimes()
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(50)
		g := randCSR(rng, n, n, 0.2)
		cscG := sparse.Transpose(g)
		uVal, uPresent := randVector(rng, n, 0.4)
		uInd, uSparse := denseToSparse(uVal, uPresent)
		maskBits := make([]bool, n)
		for i := range maskBits {
			maskBits[i] = rng.Intn(2) == 0
		}
		for _, masked := range []bool{false, true} {
			for _, scmp := range []bool{false, true} {
				mask := MaskView{Words: wordsOf(maskBits), Scmp: scmp}
				for _, so := range []bool{false, true} {
					opts := Opts{StructureOnly: so}
					views := []VecView[float64]{
						SparseVec(n, uInd, uSparse),
						bitsetView(uVal, uPresent),
					}
					for _, uv := range views {
						var wantInd []uint32
						var wantVal []float64
						if masked {
							wantInd, wantVal = ColMaskedMxv(cscG, uv, mask, sr, opts)
						} else {
							wantInd, wantVal = ColMxv(cscG, uv, sr, opts)
						}
						wVal := make([]float64, n)
						wPresent := make([]bool, n)
						nvals := ColMxvBitmap(wVal, wPresent, cscG, uv, mask, masked, sr, opts)
						if nvals != len(wantInd) {
							t.Fatalf("trial %d masked=%v scmp=%v so=%v %v: nvals %d want %d",
								trial, masked, scmp, so, uv.Kind, nvals, len(wantInd))
						}
						gotCount := 0
						for i := range wPresent {
							if wPresent[i] {
								gotCount++
							}
						}
						if gotCount != nvals {
							t.Fatalf("trial %d: present bits %d disagree with nvals %d", trial, gotCount, nvals)
						}
						for k, idx := range wantInd {
							if !wPresent[idx] {
								t.Fatalf("trial %d %v: missing output at %d", trial, uv.Kind, idx)
							}
							if !close(wVal[idx], wantVal[k]) {
								t.Fatalf("trial %d %v: w[%d]=%g want %g", trial, uv.Kind, idx, wVal[idx], wantVal[k])
							}
						}
					}
				}
			}
		}
	}
}

func TestVecViewConstructors(t *testing.T) {
	sv := SparseVec(10, []uint32{1, 5}, []float64{2, 3})
	if sv.Kind != KindSparse || sv.NVals != 2 || sv.N != 10 {
		t.Fatalf("sparse view: %+v", sv)
	}
	bv := BitsetVec([]float64{0, 2}, []uint64{2}, 1)
	if bv.Kind != KindBitset || bv.N != 2 || bv.NVals != 1 {
		t.Fatalf("bitset view: %+v", bv)
	}
	dv := DenseVec([]float64{1, 2, 3})
	if dv.Kind != KindDense || dv.NVals != 3 || dv.Words != nil {
		t.Fatalf("dense view: %+v", dv)
	}
	if KindSparse.String() != "sparse" || KindBitset.String() != "bitset" || KindDense.String() != "dense" {
		t.Fatal("VecKind.String mismatch")
	}
}

// TestRowMxvDenseViewMatchesBitmap pins the probe-free dense fast path
// against the word-probe path on a full input.
func TestRowMxvDenseViewMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		g := randCSR(rng, n, n, 0.2)
		uVal := make([]float64, n)
		uPresent := make([]bool, n)
		for i := range uVal {
			uVal[i] = rng.Float64()
			uPresent[i] = true
		}
		for _, sr := range []SR[float64]{plusTimes(), minPlus()} {
			w1 := make([]float64, n)
			p1 := make([]bool, n)
			nv1 := RowMxv(w1, p1, g, BitsetVec(uVal, wordsOf(uPresent), n), sr, Opts{})
			w2 := make([]float64, n)
			p2 := make([]bool, n)
			nv2 := RowMxv(w2, p2, g, DenseVec(uVal), sr, Opts{})
			if nv1 != nv2 {
				t.Fatalf("trial %d: nvals %d vs %d", trial, nv1, nv2)
			}
			compareDense(t, "dense-view", w1, p1, w2, p2)
		}
	}
}
