package harness_test

import (
	"testing"

	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/workload"
)

// TestFastPathParallelAgreesWithSerial: the fast path, which every
// Full-mode run uses, must produce the same (zero) race verdicts in
// parallel full mode on the paper benchmarks, with fastpath counters
// flowing through the registry.
func TestFastPathParallelAgreesWithSerial(t *testing.T) {
	bench := workload.MM(32, 8)
	res, err := harness.Run(bench, harness.Config{
		Detector: harness.SFOrder, Mode: harness.Full, Workers: 4,
		Registry: obsv.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Races != 0 {
		t.Fatalf("mm must be race-free, got %d races", res.Races)
	}
	if res.Stats["hist.batch_flushes"] == 0 {
		t.Error("hist.batch_flushes missing from the registry snapshot")
	}
}
