package detect_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// runRacyCfg is runRacy with an explicit core.Config, for the substrate
// sweeps.
func runRacyCfg(t *testing.T, p *progen.Program, ccfg core.Config, opts detect.Options) []uint64 {
	t.Helper()
	reach := core.New(ccfg)
	opts.Reach = reach
	hist := detect.NewHistory(opts)
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: hist}, p.Main()); err != nil {
		t.Fatal(err)
	}
	return hist.RacyAddrs()
}

// TestOMLockArenaMatchesOracleFuzz extends the fast-path fuzz to the
// OM pair's fine-grained insert locking with lane arenas (ABL8): on
// random programs, the racy-location set must be identical to the
// exhaustive oracle.
func TestOMLockArenaMatchesOracleFuzz(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		got := runRacyCfg(t, p, core.Config{}, detect.Options{FastPath: true})
		if !sameAddrs(got, want) {
			t.Fatalf("seed %d: got %v, oracle %v", seed, got, want)
		}
	}
}

// TestOMLockArenaParallelAgreement runs random programs on the parallel
// engine (4 workers, lane arenas active since the Reach is the direct
// Tracer) on the OM pair and compares the racy set to the serial
// oracle. Repeats catch schedule-dependent misbehavior of the
// fine-grained insert path.
func TestOMLockArenaParallelAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for rep := 0; rep < 2; rep++ {
			reach := core.New(core.Config{})
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			if _, err := sched.Run(sched.Options{Workers: 4, Tracer: reach, Checker: hist}, p.Main()); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("seed %d rep %d: parallel %v, oracle %v", seed, rep, got, want)
			}
		}
	}
}
