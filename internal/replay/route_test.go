package replay

import (
	"math/rand"
	"testing"

	"sforder/internal/detect"
)

// TestRouteOwnership: route hands each shard exactly the entries it
// owns, in file order, in one non-empty part per shard, and drops none.
func TestRouteOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 4, 7} {
		rt := &router{p: p, cursor: make([]int, p), free: make(chan *inflight, 1)}
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(300)
			if trial == 0 {
				n = 0 // an empty block yields no parts
			}
			addrs := make([]uint64, n)
			kinds := make([]detect.AccessKind, n)
			for j := range addrs {
				addrs[j] = rng.Uint64() >> rng.Intn(64)
				kinds[j] = detect.AccessKind(rng.Intn(2))
			}
			byShard := map[int]part{}
			total := 0
			for _, pt := range rt.route(rt.take(), nil, addrs, kinds) {
				if _, dup := byShard[pt.shard]; dup || len(pt.addrs) == 0 {
					t.Fatalf("p=%d: duplicate or empty part for shard %d", p, pt.shard)
				}
				byShard[pt.shard] = pt
				total += len(pt.addrs)
			}
			if total != n {
				t.Fatalf("p=%d: routed %d of %d entries", p, total, n)
			}
			// Walking the input in order, each entry must be the next one
			// in its owner's part.
			next := make([]int, p)
			for j, addr := range addrs {
				o := ShardOf(addr, p)
				pt := byShard[o]
				if pt.addrs[next[o]] != addr || pt.kinds[next[o]] != kinds[j] {
					t.Fatalf("p=%d: shard %d entry %d is not input entry %d", p, o, next[o], j)
				}
				next[o]++
			}
		}
	}
}
