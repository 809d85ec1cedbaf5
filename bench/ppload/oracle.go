package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"pushpull/generate"
	"pushpull/graphblas"
)

// The oracle is the reference the served answers are checked against. It
// shares nothing with the system under test beyond the adjacency arrays of
// the generated graph: a sequential queue BFS, a binary-heap Dijkstra and a
// union-find, none of which touch graphblas, core or par.

// adjacency is the oracle's own view of a graph.
type adjacency struct {
	n   int
	ptr []int
	ind []uint32
	w   []float64 // edge weights parallel to ind; nil for pattern graphs
}

func adjacencyOf(m *graphblas.Matrix[bool]) *adjacency {
	csr := m.CSR()
	return &adjacency{n: csr.Rows, ptr: csr.Ptr, ind: csr.Ind}
}

// weightedAdjacency reads the SSSP input the server derives lazily:
// generate.WeightedCopy(g, 1, 10, 99), the constants of serve.Graph.Weighted.
func weightedAdjacency(m *graphblas.Matrix[bool]) (*adjacency, error) {
	wm, err := generate.WeightedCopy(m, 1, 10, 99)
	if err != nil {
		return nil, err
	}
	csr := wm.CSR()
	return &adjacency{n: csr.Rows, ptr: csr.Ptr, ind: csr.Ind, w: csr.Val}, nil
}

func (a *adjacency) row(v int) []uint32 { return a.ind[a.ptr[v]:a.ptr[v+1]] }

// bfsDepths is a sequential queue BFS: depth per vertex, -1 if unreached.
func bfsDepths(a *adjacency, src int) (depths []int32, reached int) {
	depths = make([]int32, a.n)
	for i := range depths {
		depths[i] = -1
	}
	depths[src] = 0
	queue := make([]uint32, 1, a.n)
	queue[0] = uint32(src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range a.row(int(v)) {
			if depths[u] < 0 {
				depths[u] = depths[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return depths, len(queue)
}

type heapItem struct {
	d float64
	v uint32
}
type distHeap []heapItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra returns shortest distances (+Inf if unreached) with lazy
// deletion. Floating-point addition is monotone, so the distances are the
// minimum over paths of the left-to-right float sum — the same value a
// converged Bellman-Ford over (min, +) reaches, bit for bit.
func dijkstra(a *adjacency, src int) (dist []float64, reached int) {
	dist = make([]float64, a.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{{0, uint32(src)}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > dist[it.v] {
			continue
		}
		reached++
		lo := a.ptr[it.v]
		for k, u := range a.row(int(it.v)) {
			if nd := it.d + a.w[lo+k]; nd < dist[u] {
				dist[u] = nd
				heap.Push(h, heapItem{nd, u})
			}
		}
	}
	return dist, reached
}

// components runs union-find over the edge list and returns the component
// count and the vertices of the largest component, ascending.
func components(a *adjacency) (count int, giant []int) {
	parent := make([]int32, a.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < a.n; v++ {
		rv := find(int32(v))
		for _, u := range a.row(v) {
			if ru := find(int32(u)); ru != rv {
				if ru < rv {
					ru, rv = rv, ru
				}
				parent[ru] = rv
			}
		}
	}
	size := make(map[int32]int)
	best := int32(0)
	for v := 0; v < a.n; v++ {
		r := find(int32(v))
		size[r]++
		if size[r] > size[best] || (size[r] == size[best] && r < best) {
			best = r
		}
	}
	giant = make([]int, 0, size[best])
	for v := 0; v < a.n; v++ {
		if find(int32(v)) == best {
			giant = append(giant, v)
		}
	}
	return len(size), giant
}

// pickSources draws k distinct query roots from the giant component.
// Roughly 30% of Kronecker vertices are isolated and answer in
// microseconds; uniformly random roots would make every latency
// distribution bimodal, so isolated and small-component vertices are never
// drawn. The same (giant, k, seed) always gives the same roots.
func pickSources(giant []int, k int, seed int64) []int {
	if k > len(giant) {
		k = len(giant)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(giant))[:k]
	out := make([]int, k)
	for i, p := range perm {
		out[i] = giant[p]
	}
	return out
}

// The checksums below restate the server's wire contract (an FNV-1a fold
// over the little-endian result array, internal/serve/registry.go) rather
// than calling into it, so a change to the fold is caught as a mismatch.

func checksumDepths(depths []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, d := range depths {
		v := uint32(d)
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func checksumDist(dist []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range dist {
		v := math.Float64bits(d)
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// answer is what the oracle knows about one (stream, source) before the
// query is sent.
type answer struct {
	reached int
	// checksum is the exact expected fold where the oracle can derive the
	// whole result array (BFS depths, SSSP distances). Where it cannot
	// (PageRank's ranks, CC's and ParentBFS's tie-breaks are the
	// implementation's to choose), exact is false and the first checksum
	// seen for the key must repeat on every later answer.
	checksum uint64
	exact    bool
	depths   []int32 // kept for full decodes and the ParentBFS invariant
	comps    int     // CC: component count; 0 otherwise
}

// verifier checks served answers against precomputed oracle answers.
// Streams the run has no oracle for (warm-up of other workloads' graphs)
// are checked for a well-formed 200 answer only.
type verifier struct {
	answers map[string][]answer // "graph/algo" → per source-pool index
	adj     map[string]*adjacency

	mu   sync.Mutex
	seen map[string]uint64 // first checksum seen per "graph/algo/source"
}

func newVerifier() *verifier {
	return &verifier{
		answers: make(map[string][]answer),
		adj:     make(map[string]*adjacency),
		seen:    make(map[string]uint64),
	}
}

// fullDecodeEvery is how often a full payload is decoded element by
// element; the rest are checked by their checksum, found by a prefix scan
// of the body (the per-vertex array follows the summary fields).
const fullDecodeEvery = 64

// addStream precomputes the oracle answers for one stream over its
// source pool.
func (v *verifier) addStream(st *stream, pattern, weighted *adjacency, pool []int) error {
	key := st.key()
	if _, done := v.answers[key]; done {
		return nil
	}
	comps := 0
	switch st.algo {
	case "bfs", "parentbfs", "pagerank":
	case "cc":
		comps, _ = components(pattern)
	case "sssp":
		if weighted == nil {
			return fmt.Errorf("oracle: %s needs the weighted copy", key)
		}
	default:
		return fmt.Errorf("oracle: no reference for algorithm %q", st.algo)
	}
	v.adj[key] = pattern
	answers := make([]answer, len(pool))
	// One reference traversal per root, spread over the generator's cores:
	// nothing else runs yet.
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pool); i += workers {
				answers[i] = reference(st, pattern, weighted, pool[i], comps)
			}
		}()
	}
	wg.Wait()
	v.answers[key] = answers
	return nil
}

// reference computes the oracle's answer for one root.
func reference(st *stream, pattern, weighted *adjacency, src, comps int) answer {
	switch st.algo {
	case "bfs":
		depths, reached := bfsDepths(pattern, src)
		a := answer{reached: reached, checksum: checksumDepths(depths), exact: true}
		if st.full {
			a.depths = depths
		}
		return a
	case "parentbfs":
		depths, reached := bfsDepths(pattern, src)
		return answer{reached: reached, depths: depths}
	case "sssp":
		dist, reached := dijkstra(weighted, src)
		return answer{reached: reached, checksum: checksumDist(dist), exact: true}
	case "cc":
		return answer{reached: pattern.n, comps: comps}
	default: // pagerank
		return answer{reached: pattern.n}
	}
}

// summary is the part of a /query answer that precedes the per-vertex
// arrays.
type summary struct {
	reached    int
	components int
	checksum   uint64
	durationMS float64
}

// scanSummary reads the summary fields by prefix scan, without decoding
// the (possibly 38 KB) array that follows them.
func scanSummary(body []byte) (s summary, err error) {
	d, ok := scanNumber(body, "duration_ms")
	if !ok {
		return s, fmt.Errorf("answer has no duration_ms: %.120q", body)
	}
	s.durationMS = d
	r, ok := scanNumber(body, "reached")
	if !ok {
		return s, fmt.Errorf("answer has no reached: %.120q", body)
	}
	s.reached = int(r)
	if c, ok := scanNumber(body, "components"); ok {
		s.components = int(c)
	}
	sum, ok := scanUint(body, "checksum")
	if !ok {
		return s, fmt.Errorf("answer has no checksum: %.120q", body)
	}
	s.checksum = sum
	return s, nil
}

// check verifies one 200 answer. seq is the query's ordinal on its
// stream, which selects the full decodes.
func (v *verifier) check(st *stream, srcIdx, seq int, body []byte) (summary, error) {
	s, err := scanSummary(body)
	if err != nil {
		return s, err
	}
	answers, ok := v.answers[st.key()]
	if !ok {
		return s, nil
	}
	want := answers[srcIdx]
	if s.reached != want.reached {
		return s, fmt.Errorf("%s source #%d: reached %d, oracle %d", st.key(), srcIdx, s.reached, want.reached)
	}
	if want.comps != 0 && s.components != want.comps {
		return s, fmt.Errorf("%s: %d components, oracle %d", st.key(), s.components, want.comps)
	}
	if want.exact {
		if s.checksum != want.checksum {
			return s, fmt.Errorf("%s source #%d: checksum %d, oracle %d", st.key(), srcIdx, s.checksum, want.checksum)
		}
	} else {
		seenKey := st.key()
		if st.needsSource() {
			seenKey = fmt.Sprintf("%s/%d", seenKey, srcIdx)
		}
		v.mu.Lock()
		first, had := v.seen[seenKey]
		if !had {
			v.seen[seenKey] = s.checksum
		}
		v.mu.Unlock()
		if had && first != s.checksum {
			return s, fmt.Errorf("%s: checksum %d differs from the first answer's %d", seenKey, s.checksum, first)
		}
	}
	if st.full && seq%fullDecodeEvery == 0 {
		if err := v.checkFull(st, srcIdx, want, body); err != nil {
			return s, err
		}
	}
	return s, nil
}

// checkFull decodes the whole payload and compares it element by element.
func (v *verifier) checkFull(st *stream, srcIdx int, want answer, body []byte) error {
	var doc struct {
		Result struct {
			Depths  []int32 `json:"depths"`
			Parents []int64 `json:"parents"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: full payload: %w", st.key(), err)
	}
	adj := v.adj[st.key()]
	switch st.algo {
	case "bfs":
		if len(doc.Result.Depths) != len(want.depths) {
			return fmt.Errorf("%s: %d depths, want %d", st.key(), len(doc.Result.Depths), len(want.depths))
		}
		for i, d := range doc.Result.Depths {
			if d != want.depths[i] {
				return fmt.Errorf("%s source #%d: depth[%d] = %d, oracle %d", st.key(), srcIdx, i, d, want.depths[i])
			}
		}
	case "parentbfs":
		// Any parent one level up is a valid BFS tree; which one is the
		// implementation's choice.
		parents := doc.Result.Parents
		if len(parents) != adj.n {
			return fmt.Errorf("%s: %d parents, want %d", st.key(), len(parents), adj.n)
		}
		for i, p := range parents {
			d := want.depths[i]
			switch {
			case d < 0:
				if p != -1 {
					return fmt.Errorf("%s: unreached vertex %d has parent %d", st.key(), i, p)
				}
			case d == 0:
				if p != int64(i) {
					return fmt.Errorf("%s: source %d has parent %d", st.key(), i, p)
				}
			default:
				if p < 0 || p >= int64(adj.n) || want.depths[p] != d-1 {
					return fmt.Errorf("%s: vertex %d at depth %d has parent %d not one level up", st.key(), i, d, p)
				}
				row := adj.row(i)
				if k := sort.Search(len(row), func(k int) bool { return int64(row[k]) >= p }); k == len(row) || int64(row[k]) != p {
					return fmt.Errorf("%s: parent %d of vertex %d is not a neighbour", st.key(), p, i)
				}
			}
		}
	}
	return nil
}

// scanNumber finds `"key": <number>` in an indented or compact JSON body.
func scanNumber(body []byte, key string) (float64, bool) {
	tok, ok := scanToken(body, key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(tok, 64)
	return f, err == nil
}

// scanUint is scanNumber for values that do not fit a float64 exactly.
func scanUint(body []byte, key string) (uint64, bool) {
	tok, ok := scanToken(body, key)
	if !ok {
		return 0, false
	}
	u, err := strconv.ParseUint(tok, 10, 64)
	return u, err == nil
}

func scanToken(body []byte, key string) (string, bool) {
	pat := `"` + key + `":`
	i := bytes.Index(body, []byte(pat))
	if i < 0 {
		return "", false
	}
	i += len(pat)
	for i < len(body) && body[i] == ' ' {
		i++
	}
	j := i
	for j < len(body) && body[j] != ',' && body[j] != '\n' && body[j] != '}' && body[j] != ' ' {
		j++
	}
	return string(body[i:j]), j > i
}
