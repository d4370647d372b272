package harness_test

import (
	"testing"

	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/workload"
)

// TestOMLockReduction is the PR's acceptance criterion (ABL8): on mm in
// reach mode at 4 workers, fine-grained bucket locking must cut the
// list-level OM lock acquisitions to at most half of the global-lock
// count (in practice the drop is far larger: the maintenance lock is
// only taken at splits and label exhaustion).
func TestOMLockReduction(t *testing.T) {
	bench := workload.MM(32, 8)
	locks := map[bool]int64{}
	for _, global := range []bool{true, false} {
		res, err := harness.Run(bench, harness.Config{
			Detector: harness.SFOrder, Mode: harness.Reach, Workers: 4,
			OMGlobalLock: global, Registry: obsv.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("omglobal=%v: %v", global, err)
		}
		locks[global] = res.Stats["om.lock_acquires"]
		if global {
			if res.Stats["om.bucket_locks"] != 0 {
				t.Errorf("global mode took %d bucket locks; expected none", res.Stats["om.bucket_locks"])
			}
		} else {
			if res.Stats["om.bucket_locks"] == 0 {
				t.Error("fine-grained mode reported no bucket locks")
			}
			if res.Stats["core.arena_bytes"] == 0 {
				t.Error("arena gauge reported no slab bytes")
			}
		}
	}
	if locks[true] == 0 {
		t.Fatal("no maintenance-lock acquisitions counted in global mode")
	}
	if locks[false]*2 > locks[true] {
		t.Errorf("om.lock_acquires %d (fine) vs %d (global): want ≥2× reduction",
			locks[false], locks[true])
	}
	t.Logf("om.lock_acquires: global=%d fine=%d (%.0f×)", locks[true], locks[false],
		float64(locks[true])/float64(locks[false]))
}

// TestOMAblationKnobsAgree: the ABL8 knob (global lock) must not
// change measured results — counts, queries, and race-freedom are
// identical across both variants in reach and full mode.
func TestOMAblationKnobsAgree(t *testing.T) {
	bench := workload.MM(16, 8)
	for _, mode := range []harness.Mode{harness.Reach, harness.Full} {
		var baseStrands, baseQueries uint64
		for i, global := range []bool{false, true} {
			res, err := harness.Run(bench, harness.Config{
				Detector: harness.SFOrder, Mode: mode, Workers: 2,
				OMGlobalLock: global,
				Registry:     obsv.NewRegistry(),
			})
			if err != nil {
				t.Fatalf("%v global=%v: %v", mode, global, err)
			}
			if res.Races != 0 {
				t.Fatalf("%v global=%v: %d races on race-free mm", mode, global, res.Races)
			}
			if i == 0 {
				baseStrands, baseQueries = res.Counts.Strands, res.Queries
				continue
			}
			if res.Counts.Strands != baseStrands {
				t.Errorf("%v global=%v: strands %d, want %d", mode, global, res.Counts.Strands, baseStrands)
			}
			if mode == harness.Full && res.Queries == 0 && baseQueries != 0 {
				t.Errorf("%v global=%v: no queries served", mode, global)
			}
		}
	}
}
