package detect

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// twoLevelTable is the access history's shadow memory, in the paper's
// layout (§4): a two-level table that acts like a direct-mapped cache.
// The first level is a fixed-size directory indexed by a hash of the
// page number; the second level is a contiguous page of location slots
// indexed directly by the address's low bits. Each page carries one
// lock, so a lock covers a contiguous subset of the history — the
// paper's fine-grained-locking granularity, and the unit the fast
// path's strand batches flush at. Directory collisions chain pages (the
// paper can evict like a real cache; a race detector that must not miss
// races cannot, so we chain).
//
// Directory slots are atomic pointers with CAS insertion at the chain
// head, so page lookup — on every instrumented access — is lock-free;
// only a losing CAS (two workers creating the same page at once) retries.
// A page's num and next fields are immutable once the page is published,
// so chain walks need no synchronization beyond the slot load.
//
// Location slots are atomic too: a loc is created and mutated only under
// its page lock, but once published it is never replaced, and its
// state word (fastpath.go) is read without the lock. One directory and
// one page type thus serve both the locked history and the lock-free
// state-word load.
const (
	dirBits  = 12 // 4096 directory slots
	pageBits = 8  // 256 locations per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page struct {
	mu    sync.Mutex
	num   uint64 // addr >> pageBits
	slots [pageSize]atomic.Pointer[loc]
	next  *page // directory-collision chain; immutable after publication
}

type twoLevelTable struct {
	dir [1 << dirBits]atomic.Pointer[page]
}

func dirSlot(pageNum uint64) int {
	return int((pageNum * 0x9e3779b97f4a7c15) >> (64 - dirBits))
}

// pageOf finds or creates the page numbered num, lock-free: walk the
// chain, and if the page is missing CAS a new one in at the head. A lost
// CAS means another worker changed the head — rewalk (the page may now
// exist) and retry.
func (t *twoLevelTable) pageOf(num uint64) *page {
	sp := &t.dir[dirSlot(num)]
	for {
		head := sp.Load()
		for p := head; p != nil; p = p.next {
			if p.num == num {
				return p
			}
		}
		np := &page{num: num, next: head}
		if sp.CompareAndSwap(head, np) {
			return np
		}
	}
}

// published returns addr's location if one was ever created, without
// locking or creating anything.
func (t *twoLevelTable) published(addr uint64) *loc {
	num := addr >> pageBits
	for p := t.dir[dirSlot(num)].Load(); p != nil; p = p.next {
		if p.num == num {
			return p.slots[addr&pageMask].Load()
		}
	}
	return nil
}

// locAt returns addr's location on p, creating and publishing it if
// needed. The caller holds p.mu.
func (p *page) locAt(addr uint64) *loc {
	sl := &p.slots[addr&pageMask]
	l := sl.Load()
	if l == nil {
		l = &loc{}
		sl.Store(l)
	}
	return l
}

// forEach visits every populated location under its page lock; used by
// the accounting methods, not the hot path.
func (t *twoLevelTable) forEach(fn func(*loc)) {
	for i := range t.dir {
		for p := t.dir[i].Load(); p != nil; p = p.next {
			p.mu.Lock()
			for j := range p.slots {
				if l := p.slots[j].Load(); l != nil {
					fn(l)
				}
			}
			p.mu.Unlock()
		}
	}
}

// locSize, pairSize and pageSizeBytes are the real struct sizes, derived
// rather than hard-coded so the memory accounting cannot drift as the
// structs evolve (a test pins them to the expected values).
var (
	locSize       = int(unsafe.Sizeof(loc{}))
	pairSize      = int(unsafe.Sizeof(lrPair{}))
	pageSizeBytes = int(unsafe.Sizeof(page{}))
)

// memBytes estimates the table's heap footprint: the directory, every
// page, and every location with its reader storage. The published state
// snapshots are shared across locations and not counted.
func (t *twoLevelTable) memBytes() int {
	total := len(t.dir) * 8
	t.forEach(func(l *loc) {
		total += locSize + 8*cap(l.readers) + pairSize*len(l.pairs)
	})
	for i := range t.dir {
		for p := t.dir[i].Load(); p != nil; p = p.next {
			total += pageSizeBytes
		}
	}
	return total
}
