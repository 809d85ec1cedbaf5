package frameworks

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pushpull/generate"
	"pushpull/graphblas"
	"pushpull/internal/sparse"
)

// refBFS is the queue-based oracle.
func refBFS(g *Graph, source int) []int32 {
	depths := newDepths(g.N, source)
	queue := []int{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ind, _ := g.Out.RowSpan(u)
		for _, v := range ind {
			if depths[v] < 0 {
				depths[v] = depths[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return depths
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	rmat, err := generate.RMAT(generate.RMATConfig{Scale: 10, EdgeFactor: 8, Undirected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out["rmat"] = FromMatrix(rmat)
	grid, err := generate.Grid2D(20, 25)
	if err != nil {
		t.Fatal(err)
	}
	out["grid"] = FromMatrix(grid)
	path, err := generate.Path(200)
	if err != nil {
		t.Fatal(err)
	}
	out["path"] = FromMatrix(path)
	star, err := generate.Star(300)
	if err != nil {
		t.Fatal(err)
	}
	out["star"] = FromMatrix(star)
	// Disconnected graph.
	disc, err := graphblas.NewMatrixFromCOO(8, 8,
		[]uint32{0, 1, 4, 5}, []uint32{1, 0, 5, 4}, []bool{true, true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out["disconnected"] = FromMatrix(disc)
	return out
}

func TestAllFrameworksMatchReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		sources := []int{0}
		if g.N > 10 {
			sources = append(sources, g.N/2, g.N-1)
		}
		for _, src := range sources {
			want := refBFS(g, src)
			for _, r := range All() {
				got := r.BFS(g, src)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s on %s src=%d: depth[%d]=%d want %d",
							r.Name, gname, src, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestFrameworksPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(150)
		p := 0.01 + rng.Float64()*0.1
		m, err := generate.ErdosRenyi(n, p, seed)
		if err != nil {
			return false
		}
		g := FromMatrix(m)
		src := rng.Intn(n)
		want := refBFS(g, src)
		for _, r := range All() {
			got := r.BFS(g, src)
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicBitset(t *testing.T) {
	b := newAtomicBitset(100)
	if b.get(37) {
		t.Fatal("fresh bit set")
	}
	if !b.testAndSet(37) {
		t.Fatal("first testAndSet should win")
	}
	if b.testAndSet(37) {
		t.Fatal("second testAndSet should lose")
	}
	if !b.get(37) {
		t.Fatal("bit lost")
	}
	b.set(99)
	if !b.get(99) {
		t.Fatal("set(99) lost")
	}
	if b.get(98) {
		t.Fatal("neighbour bit contaminated")
	}
}

func TestBuildShards(t *testing.T) {
	m, err := generate.RMAT(generate.RMATConfig{Scale: 9, EdgeFactor: 8, Undirected: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := FromMatrix(m)
	bounds := buildShards(g, 16)
	if bounds[0] != 0 || bounds[len(bounds)-1] != g.N {
		t.Fatalf("shard bounds don't cover: %v", bounds[:3])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatal("shard bounds not increasing")
		}
	}
	// One-shard degenerate case.
	single := buildShards(g, 0)
	if single[len(single)-1] != g.N {
		t.Fatal("single shard must cover all vertices")
	}
}

// ptrGraph is a Graph whose in-edge CSR carries only the row pointers, the
// one array buildShards reads.
func ptrGraph(ptr []int) *Graph {
	n := len(ptr) - 1
	return &Graph{In: &sparse.CSR[bool]{Rows: n, Cols: n, Ptr: ptr}, N: n}
}

func TestBuildShardsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		ptr := make([]int, n+1)
		for v := 0; v < n; v++ {
			deg := 0
			if rng.Intn(4) > 0 { // leave some zero-degree vertices
				deg = rng.Intn(20)
			}
			ptr[v+1] = ptr[v] + deg
		}
		for _, want := range []int{1, 2, 3, 7, n, n + 3, 64} {
			b := buildShards(ptrGraph(ptr), want)
			if b[0] != 0 || b[len(b)-1] != n {
				t.Fatalf("n=%d want=%d: bounds %v do not cover [0,%d]", n, want, b, n)
			}
			if n == 0 {
				if len(b) != 2 {
					t.Fatalf("n=0 want=%d: expected [0 0], got %v", want, b)
				}
				continue
			}
			if got := len(b) - 1; got > want || got > n || got < 1 {
				t.Fatalf("n=%d want=%d: shard count %d out of range", n, want, got)
			}
			for s := 1; s < len(b); s++ {
				if b[s] <= b[s-1] {
					t.Fatalf("n=%d want=%d: bounds %v not strictly increasing", n, want, b)
				}
			}
		}
	}
}

func TestBuildShardsEdgeBalance(t *testing.T) {
	// A heavily skewed degree sequence: the balance target is that no
	// shard exceeds the ideal share by more than the largest single
	// vertex (a vertex is indivisible).
	n := 1000
	ptr := make([]int, n+1)
	maxDeg := 0
	rng := rand.New(rand.NewSource(11))
	for v := 0; v < n; v++ {
		deg := 1
		if v%97 == 0 {
			deg = 500 + rng.Intn(500) // hubs
		}
		if deg > maxDeg {
			maxDeg = deg
		}
		ptr[v+1] = ptr[v] + deg
	}
	total := ptr[n]
	for _, want := range []int{2, 4, 8, 16} {
		b := buildShards(ptrGraph(ptr), want)
		ideal := total / want
		for s := 0; s+1 < len(b); s++ {
			edges := ptr[b[s+1]] - ptr[b[s]]
			if edges > ideal+maxDeg {
				t.Fatalf("want=%d shard %d has %d edges (ideal %d, maxdeg %d): %v", want, s, edges, ideal, maxDeg, b)
			}
		}
	}
}

func TestFrameworkNames(t *testing.T) {
	names := map[string]bool{}
	for _, r := range All() {
		if r.Name == "" || r.BFS == nil {
			t.Fatal("incomplete runner")
		}
		if names[r.Name] {
			t.Fatalf("duplicate name %s", r.Name)
		}
		names[r.Name] = true
	}
	if len(names) != 5 {
		t.Fatalf("want 5 frameworks, got %d", len(names))
	}
}

func TestMultiwayMergePairsCombines(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var keys []uint32
	offsets := []int{0}
	for r := 0; r < 16; r++ {
		run := make([]uint32, rng.Intn(40))
		for i := range run {
			run[i] = uint32(rng.Intn(101))
		}
		slices.Sort(run)
		keys = append(keys, run...)
		offsets = append(offsets, len(keys))
	}
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = 1
	}
	gotK, gotV := multiwayMergePairs(keys, vals, offsets, func(a, b int) int { return a + b })
	counts := map[uint32]int{}
	for _, k := range keys {
		counts[k]++
	}
	if len(gotK) != len(counts) {
		t.Fatalf("got %d unique keys, want %d", len(gotK), len(counts))
	}
	for i, k := range gotK {
		if gotV[i] != counts[k] {
			t.Fatalf("key %d: combined=%d want %d", k, gotV[i], counts[k])
		}
		if i > 0 && gotK[i-1] >= k {
			t.Fatalf("output unsorted at %d", i)
		}
	}
}
