package detect

import (
	"testing"
	"unsafe"
)

// TestAccountingSizes pins the memory-accounting sizes to the real
// struct layouts. The old hand-written constants (56/48/24) had drifted
// from the structs; the sizes are now unsafe.Sizeof-derived, and this
// test pins the expected 64-bit values so struct growth fails loudly
// instead of skewing MemBytes silently.
func TestAccountingSizes(t *testing.T) {
	if locSize != int(unsafe.Sizeof(loc{})) {
		t.Errorf("locSize %d != sizeof(loc) %d", locSize, unsafe.Sizeof(loc{}))
	}
	if pairSize != int(unsafe.Sizeof(lrPair{})) {
		t.Errorf("pairSize %d != sizeof(lrPair) %d", pairSize, unsafe.Sizeof(lrPair{}))
	}
	if pageSizeBytes != int(unsafe.Sizeof(page{})) {
		t.Errorf("pageSizeBytes %d != sizeof(page) %d", pageSizeBytes, unsafe.Sizeof(page{}))
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("expected values below are for 64-bit platforms")
	}
	// 48 = last writer, readers slice, pairs map, and the fast path's
	// state word.
	if locSize != 48 {
		t.Errorf("loc grew: %d bytes, expected 48", locSize)
	}
	if pairSize != 16 {
		t.Errorf("lrPair grew: %d bytes, expected 16", pairSize)
	}
	if pageSizeBytes != 2072 {
		t.Errorf("page grew: %d bytes, expected 2072", pageSizeBytes)
	}
}
