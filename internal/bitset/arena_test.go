package bitset

import "testing"

func TestArenaCloneUnionMerge(t *testing.T) {
	a := &Arena{}
	s := FromIDs(1, 70, 200)
	c := CloneIn(a, s, 201)
	if !c.Equal(s) {
		t.Fatalf("CloneIn: got %v want %v", c, s)
	}
	c.Add(199) // within hint: must not grow
	if got, want := c.MemBytes(), 8*hintWords(201); got != want {
		t.Fatalf("CloneIn mem %d, want %d", got, want)
	}

	x, y := FromIDs(3, 64), FromIDs(5, 130)
	u := UnionIn(a, x, y, 131)
	if want := FromIDs(3, 5, 64, 130); !u.Equal(want) {
		t.Fatalf("UnionIn: got %v want %v", u, want)
	}
	// y larger than the hint-derived clone: the growing path.
	u2 := UnionIn(a, FromIDs(1), FromIDs(600), 0)
	if want := FromIDs(1, 600); !u2.Equal(want) {
		t.Fatalf("UnionIn grow: got %v want %v", u2, want)
	}

	m, alloc := MergeSharedIn(a, x, y)
	if !alloc || !m.Equal(Union(x, y)) {
		t.Fatalf("MergeSharedIn divergent: alloc=%v m=%v", alloc, m)
	}
	sub := FromIDs(3)
	if m2, alloc2 := MergeSharedIn(a, x, sub); alloc2 || m2 != x {
		t.Fatalf("MergeSharedIn subsumed: expected shared pointer, got alloc=%v", alloc2)
	}
	if m3, alloc3 := MergeSharedIn(a, nil, nil); alloc3 || m3 != nil {
		t.Fatal("MergeSharedIn(nil,nil) should stay nil without allocating")
	}

	if a.Bytes() == 0 {
		t.Fatal("arena reported no page bytes after allocations")
	}
	a.Release()
	if a.Bytes() != 0 {
		t.Fatal("arena bytes nonzero after Release")
	}
}

// TestArenaNilFallback: every arena helper must work with a nil arena
// (callers without an arena).
func TestArenaNilFallback(t *testing.T) {
	var a *Arena
	if got := CloneIn(a, FromIDs(9), 10); !got.Equal(FromIDs(9)) {
		t.Fatalf("nil-arena CloneIn: %v", got)
	}
	if got := UnionIn(a, FromIDs(1), FromIDs(2), 3); !got.Equal(FromIDs(1, 2)) {
		t.Fatalf("nil-arena UnionIn: %v", got)
	}
	if a.Bytes() != 0 {
		t.Fatal("nil arena must report zero bytes")
	}
	a.Release() // must not panic
}

// TestArenaSlicesAreCapped: a set that grows past its arena allocation
// must not overwrite its page neighbour.
func TestArenaSlicesAreCapped(t *testing.T) {
	a := &Arena{}
	first := CloneIn(a, nil, 64)  // one word
	second := CloneIn(a, nil, 64) // adjacent word on the same page
	second.Add(7)
	first.Add(0)
	first.Add(100) // grows past the one-word allocation
	first.Add(64)
	if !second.Equal(FromIDs(7)) {
		t.Fatalf("neighbour set corrupted by growth: %v", second)
	}
	if !first.Equal(FromIDs(0, 64, 100)) {
		t.Fatalf("grown set wrong: %v", first)
	}
}
