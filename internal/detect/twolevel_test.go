package detect_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sforder"
	"sforder/internal/detect"
	"sforder/internal/sched"
)

// newTwoLevelHistory returns a history on the per-access locked path,
// so every Read/Write goes straight to the two-level table.
func newTwoLevelHistory(prec map[[2]uint64]bool) *detect.History {
	return detect.NewHistory(detect.Options{Reach: &stubReach{prec: prec}})
}

func TestTwoLevelBasicDetection(t *testing.T) {
	ss := fakeStrands(2)
	h := newTwoLevelHistory(map[[2]uint64]bool{})
	h.Write(ss[0], 7)
	h.Write(ss[1], 7)
	if h.RaceCount() != 1 {
		t.Fatalf("RaceCount = %d, want 1", h.RaceCount())
	}
}

func TestTwoLevelDistinguishesPageNeighbours(t *testing.T) {
	// Addresses within one page must not alias each other.
	ss := fakeStrands(2)
	h := newTwoLevelHistory(map[[2]uint64]bool{})
	h.Write(ss[0], 256)
	h.Write(ss[1], 257) // same page, different slot: no conflict
	if h.RaceCount() != 0 {
		t.Fatalf("page neighbours aliased: %v", h.Races())
	}
}

func TestTwoLevelDistinguishesDirectoryCollisions(t *testing.T) {
	// Two addresses whose pages collide in the directory must chain,
	// not alias. Same in-page offset, page numbers far apart.
	ss := fakeStrands(2)
	h := newTwoLevelHistory(map[[2]uint64]bool{})
	// Write a dense set of same-offset addresses across many pages; with
	// 4096 directory slots and 8192 pages, collisions are guaranteed.
	for p := uint64(0); p < 8192; p++ {
		h.Write(ss[0], p<<8|5)
	}
	if h.RaceCount() != 0 {
		t.Fatal("distinct addresses reported as conflicting")
	}
	// Re-write everything from a parallel strand: exactly one race per
	// address if no aliasing or loss occurred.
	for p := uint64(0); p < 8192; p++ {
		h.Write(ss[1], p<<8|5)
	}
	if h.RaceCount() != 8192 {
		t.Fatalf("RaceCount = %d, want 8192 (one per address)", h.RaceCount())
	}
}

func TestTwoLevelMemBytes(t *testing.T) {
	ss := fakeStrands(1)
	h := newTwoLevelHistory(map[[2]uint64]bool{})
	before := h.MemBytes()
	for a := uint64(0); a < 10_000; a++ {
		h.Write(ss[0], a)
	}
	if h.MemBytes() <= before {
		t.Error("MemBytes must grow")
	}
}

// TestTwoLevelConcurrentHammer stresses page creation and slot access
// from several goroutines (race-detector clean).
func TestTwoLevelConcurrentHammer(t *testing.T) {
	h := newTwoLevelHistory(nil)
	fut := &sched.FutureTask{ID: 0}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			s := &sched.Strand{ID: id, Fut: fut}
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 5000; i++ {
				addr := uint64(rng.Intn(1 << 16))
				if i%3 == 0 {
					h.Write(s, addr)
				} else {
					h.Read(s, addr)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	// Every access pair was potentially parallel (stub reach: nothing
	// precedes), so races are expected; the point is no crash/corruption.
	if h.MemBytes() == 0 {
		t.Error("table should be populated")
	}
}

// sparseBytesPerLoc allocates n live heap objects of the given size,
// writes one field of each through the default (fast-path) history,
// keyed by sforder.ShadowAddr exactly as instrumented programs key
// them, and returns MemBytes per location.
func sparseBytesPerLoc(size, n int) float64 {
	objs := make([][]*int, n) // pointer-typed, so no tiny-allocator packing
	for i := range objs {
		objs[i] = make([]*int, size/8)
	}
	h := detect.NewHistory(detect.Options{Reach: &stubReach{}, FastPath: true})
	s := fakeStrands(1)[0]
	for _, o := range objs {
		h.Write(s, sforder.ShadowAddr(&o[0]))
	}
	h.StrandClose(s)
	runtime.KeepAlive(objs)
	return float64(h.MemBytes()) / float64(n)
}

// TestSparseAddressMemory is the sparse-address gate of the single
// shadow table. Raw heap addresses are sparse at the table's 256-byte
// page granularity: 8-byte objects fill a page 32 to one, 64-byte
// objects 4 to one, and each 512-byte object gets a page of its own.
// The bounds are what the deleted sharded map plus the fast path's
// separate state directory paid on the same input (EXPERIMENTS.md
// ABL5); the single table must stay at or under them, which it can
// only because the state word lives in the location rather than in a
// second page.
func TestSparseAddressMemory(t *testing.T) {
	for _, c := range []struct {
		size  int
		bound float64
	}{{8, 157}, {64, 608}, {512, 2155}} {
		got := sparseBytesPerLoc(c.size, 10_000)
		t.Logf("%d-byte objects: %.1f B/location", c.size, got)
		if got > c.bound {
			t.Errorf("%d-byte objects: %.1f B/location, want <= %.0f", c.size, got, c.bound)
		}
	}
}
