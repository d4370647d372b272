package trace_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// TestStreamMatchesLoad: the incremental decoder yields exactly the
// items and totals Load produces, in the same order.
func TestStreamMatchesLoad(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		raw, _ := record(t, seed)
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.OpenStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var events []trace.Event
		var blocks []trace.AccessBlock
		for {
			ev, blk, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ev != nil {
				events = append(events, *ev)
			} else {
				blocks = append(blocks, *blk)
			}
		}
		if len(events) != len(c.Events) || len(blocks) != len(c.Blocks) {
			t.Fatalf("seed %d: stream %d/%d items, load %d/%d", seed, len(events), len(blocks), len(c.Events), len(c.Blocks))
		}
		for i := range events {
			a, b := events[i], c.Events[i]
			sinksEq := len(a.Sinks) == len(b.Sinks)
			for j := 0; sinksEq && j < len(a.Sinks); j++ {
				sinksEq = a.Sinks[j] == b.Sinks[j]
			}
			if a.Op != b.Op || a.U != b.U || a.A != b.A || a.B != b.B ||
				a.Placeholder != b.Placeholder || a.Fut != b.Fut || a.FutParent != b.FutParent || !sinksEq {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, a, b)
			}
		}
		for i := range blocks {
			a, b := blocks[i], c.Blocks[i]
			if a.Strand != b.Strand || len(a.Addrs) != len(b.Addrs) {
				t.Fatalf("seed %d: block %d differs", seed, i)
			}
			for j := range a.Addrs {
				if a.Addrs[j] != b.Addrs[j] || a.Kinds[j] != b.Kinds[j] {
					t.Fatalf("seed %d: block %d entry %d differs", seed, i, j)
				}
			}
		}
		if st.Strands() != c.Strands || st.Futures() != c.Futures ||
			st.Entries() != c.Entries || st.Bytes() != c.Bytes {
			t.Fatalf("seed %d: stream totals %d/%d/%d/%d, load %d/%d/%d/%d", seed,
				st.Strands(), st.Futures(), st.Entries(), st.Bytes(),
				c.Strands, c.Futures, c.Entries, c.Bytes)
		}
	}
}

// TestStreamRejectsTruncation: cutting a capture anywhere after the
// header makes Next error instead of returning io.EOF.
func TestStreamRejectsTruncation(t *testing.T) {
	raw, _ := record(t, 5)
	for _, cut := range []int{len(raw) - 1, len(raw) - 3, len(raw) / 2, 20} {
		st, err := trace.OpenStream(bytes.NewReader(raw[:cut]))
		if err != nil {
			continue // cut inside the header: also fine
		}
		for {
			_, _, err = st.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("cut at %d: stream ended cleanly", cut)
		}
	}
}

// TestLoadRejectsBlockUnknownStrand is the hardening satellite: an
// access block naming a strand no structure event declared must fail at
// decode time — before the bogus id can size replay state — not load
// silently.
func TestLoadRejectsBlockUnknownStrand(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	rec.OnRoot(&sched.Strand{ID: 0, Fut: f0})
	// A block for strand 900, which no structure event ever mentions.
	rec.TapAccesses(&sched.Strand{ID: 900, Fut: f0},
		[]uint64{1, 2}, []detect.AccessKind{detect.AccessRead, detect.AccessWrite})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := trace.Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("capture with an undeclared block strand loaded")
	}
	if !strings.Contains(err.Error(), "before any structure event") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestLoadBlockAfterIntroduction: the same block is fine once the
// strand has been declared — the validation keys on structure events,
// not on block order among themselves.
func TestLoadBlockAfterIntroduction(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	root := &sched.Strand{ID: 0, Fut: f0}
	rec.OnRoot(root)
	rec.OnSpawn(root, &sched.Strand{ID: 1, Fut: f0}, &sched.Strand{ID: 2, Fut: f0}, &sched.Strand{ID: 3, Fut: f0})
	rec.TapAccesses(&sched.Strand{ID: 1, Fut: f0}, []uint64{7}, []detect.AccessKind{detect.AccessWrite})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Strands != 4 || c.Entries != 1 {
		t.Fatalf("strands %d entries %d, want 4/1", c.Strands, c.Entries)
	}
}
