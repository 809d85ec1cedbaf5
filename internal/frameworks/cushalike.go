package frameworks

import (
	"sort"
	"sync/atomic"

	"pushpull/internal/par"
)

// CuShaBFS follows CuSha's gather-apply-scatter model over G-Shards: edges
// are partitioned by destination into shards, and *every* iteration sweeps
// *all* edges, updating destinations whose source was discovered last
// level. Shards own disjoint destination ranges, so shard-parallel updates
// race-free. The defining cost — Θ(iterations × E) regardless of frontier
// size — is what makes the strategy competitive on low-diameter scale-free
// graphs but catastrophic on meshes (the paper's i04 row: 17609 ms).
func CuShaBFS(g *Graph, source int) []int32 {
	depths := newDepths(g.N, source)
	// Shards: contiguous destination ranges of roughly equal edge count,
	// built from the in-edge CSR (edges grouped by destination).
	const targetShards = 64
	shardBounds := buildShards(g, targetShards)

	for depth := int32(0); ; depth++ {
		var changed int32
		par.ForWorker(len(shardBounds)-1, func(_, lo, hi int) {
			local := int32(0)
			for s := lo; s < hi; s++ {
				vLo, vHi := shardBounds[s], shardBounds[s+1]
				for v := vLo; v < vHi; v++ {
					if depths[v] >= 0 {
						continue
					}
					parents, _ := g.In.RowSpan(v)
					for _, u := range parents {
						// Cross-shard reads race with owned writes; CuSha
						// double-buffers vertex values, which an atomic
						// load models (the only concurrent transition is
						// -1 → depth+1, never == depth, so a stale read
						// is harmless).
						if atomic.LoadInt32(&depths[u]) == depth {
							atomic.StoreInt32(&depths[v], depth+1)
							local++
							break
						}
					}
				}
			}
			if local > 0 {
				atomic.AddInt32(&changed, local)
			}
		})
		if changed == 0 {
			break
		}
	}
	return depths
}

// buildShards splits vertices into at most want contiguous ranges with
// roughly equal in-edge populations, mirroring CuSha's shard construction.
// The bounds are strictly increasing from 0 to g.N: shard s owns
// [bounds[s], bounds[s+1]). want is clamped to [1, g.N], so every shard
// owns at least one vertex; an empty graph gets the one shard [0, 0].
func buildShards(g *Graph, want int) []int {
	n, ptr := g.N, g.In.Ptr
	want = min(max(want, 1), max(n, 1))
	bounds := make([]int, want+1)
	if n == 0 {
		return bounds
	}
	total := ptr[n]
	for k := 1; k < want; k++ {
		// Smallest v with ptr[v] >= k/want of the edges, clamped so bounds
		// stay strictly increasing and every remaining shard keeps a vertex.
		v := sort.SearchInts(ptr[:n+1], total/want*k+total%want*k/want)
		bounds[k] = min(max(v, bounds[k-1]+1), n-(want-k))
	}
	bounds[want] = n
	return bounds
}
