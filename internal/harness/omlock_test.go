package harness_test

import (
	"testing"

	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/workload"
)

// TestOMLockReduction is the ABL8 acceptance criterion: on mm in reach
// mode at 4 workers, fine-grained bucket locking must cut the
// list-level OM lock acquisitions to at most half of what a list-level
// insert lock takes. Such a lock is taken once per insert batch on each
// list: the root's InsertFirst and one batch per spawn, create and get,
// i.e. 2 × (spawns + futures + gets), as sched.futures counts the root
// future too. On this input that is 218, exactly the om.lock_acquires
// the deleted global-lock mode reported (EXPERIMENTS ABL8). In practice
// the drop is far larger: the maintenance lock is only taken at splits
// and label exhaustion.
func TestOMLockReduction(t *testing.T) {
	res, err := harness.Run(workload.MM(32, 8), harness.Config{
		Detector: harness.SFOrder, Mode: harness.Reach, Workers: 4,
		Registry: obsv.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	batches := 2 * (s["sched.spawns"] + s["sched.futures"] + s["sched.gets"])
	if batches == 0 {
		t.Fatal("no OM insert batches derived from the sched counters")
	}
	if s["om.bucket_locks"] == 0 {
		t.Error("fine-grained mode reported no bucket locks")
	}
	if s["core.arena_bytes"] == 0 {
		t.Error("arena gauge reported no slab bytes")
	}
	fine := s["om.lock_acquires"]
	if fine*2 > batches {
		t.Errorf("om.lock_acquires %d vs %d insert batches: want ≥2× reduction", fine, batches)
	}
	t.Logf("om.lock_acquires: per-batch=%d fine=%d (%.0f×)", batches, fine,
		float64(batches)/float64(fine))
}

// TestOMAblationKnobsAgree: the OM pair's counts, queries, and
// race-freedom must be stable across reach and full mode.
func TestOMAblationKnobsAgree(t *testing.T) {
	bench := workload.MM(16, 8)
	var baseStrands uint64
	for i, mode := range []harness.Mode{harness.Reach, harness.Full} {
		res, err := harness.Run(bench, harness.Config{
			Detector: harness.SFOrder, Mode: mode, Workers: 2,
			Registry: obsv.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Races != 0 {
			t.Fatalf("%v: %d races on race-free mm", mode, res.Races)
		}
		if i == 0 {
			baseStrands = res.Counts.Strands
			continue
		}
		if res.Counts.Strands != baseStrands {
			t.Errorf("%v: strands %d, want %d", mode, res.Counts.Strands, baseStrands)
		}
		if mode == harness.Full && res.Queries == 0 {
			t.Errorf("%v: no queries served", mode)
		}
	}
}
