package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sforder"
	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/workload"
)

// smallSpecs are the benchmark's programs at test sizes.
var smallSpecs = []spec{
	{name: "mm", program: func() *workload.Benchmark { return workload.MM(32, 8) }},
	{name: "sort", program: func() *workload.Benchmark { return workload.Sort(2000, 64) }},
	{name: "pipeline", program: func() *workload.Benchmark { return workload.Pipeline(12, 4, 2) }},
	{name: "sort-replay", program: func() *workload.Benchmark { return workload.Sort(2000, 64) }, replay: true},
}

const testWorkers = 2

// laneRecorder is core's Reach with its lane and plain spawn events
// counted.
type laneRecorder struct {
	*core.Reach
	lanes                 int
	laneCalls, plainCalls atomic.Int64
}

func (l *laneRecorder) SetLanes(n int) { l.lanes = n; l.Reach.SetLanes(n) }

func (l *laneRecorder) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	l.plainCalls.Add(1)
	l.Reach.OnSpawn(u, child, cont, placeholder)
}

func (l *laneRecorder) OnSpawnLane(lane int, u, child, cont, placeholder *sched.Strand) {
	l.laneCalls.Add(1)
	l.Reach.OnSpawnLane(lane, u, child, cont, placeholder)
}

// closeRecorder is the access history with its strand-close hooks
// counted.
type closeRecorder struct {
	*detect.History
	closes atomic.Int64
}

func (c *closeRecorder) StrandClose(s *sched.Strand) {
	c.closes.Add(1)
	c.History.StrandClose(s)
}

func TestShimsForwardLaneTracerAndStrandCloser(t *testing.T) {
	reach := &laneRecorder{Reach: core.New(core.Config{})}
	hist := &closeRecorder{History: detect.NewHistory(detect.Options{Reach: reach})}
	r := workload.MM(32, 8).Make()
	counts, err := sched.Run(sched.Options{
		Workers: testWorkers,
		Tracer:  &tracerShim{inner: reach},
		Checker: &checkerShim{inner: hist},
	}, r.Main)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if reach.lanes != testWorkers {
		t.Errorf("SetLanes(%d) not forwarded: got %d", testWorkers, reach.lanes)
	}
	if reach.laneCalls.Load() == 0 || reach.plainCalls.Load() != 0 {
		t.Errorf("spawns: %d lane, %d plain; want all through the lane variant", reach.laneCalls.Load(), reach.plainCalls.Load())
	}
	if got := hist.closes.Load(); got != int64(counts.Strands) {
		t.Errorf("StrandClose called %d times for %d strands", got, counts.Strands)
	}
}

func TestFastPathFlushesThroughShim(t *testing.T) {
	b := newBench(smallSpecs[0], 1, testWorkers)
	s, err := b.runTracedSample(true)
	if err != nil {
		t.Fatal(err)
	}
	if s.flushes == 0 {
		t.Error("fast path through the shims: hist.flushes = 0")
	}
	if s.closeN == 0 || s.accessN == 0 || s.maintN == 0 || s.queryN == 0 {
		t.Errorf("shim counts: close %d access %d maint %d query %d", s.closeN, s.accessN, s.maintN, s.queryN)
	}
}

func TestTracedVerdictMatchesUntraced(t *testing.T) {
	for _, sp := range smallSpecs[:3] {
		for seed := int64(1); seed <= 3; seed++ {
			b := newBench(sp, seed, testWorkers)
			in := b.newInstance()
			res, err := sforder.Run(sforder.Config{Workers: testWorkers}, in.main)
			if err != nil {
				t.Fatal(err)
			}
			untraced := racyAddrs(res.Races)
			s, err := b.runTracedSample(false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if !slices.Equal(s.racy, untraced) {
				t.Errorf("%s seed %d: traced %v, untraced %v", sp.name, seed, s.racy, untraced)
			}
			if !slices.Equal(untraced, b.plant.racy()) {
				t.Errorf("%s seed %d: untraced %v, planted %v", sp.name, seed, untraced, b.plant.racy())
			}
		}
	}
}

func TestPlantedCheckFailsWithoutDetector(t *testing.T) {
	b := newBench(smallSpecs[0], 1, testWorkers)
	b.detector = sforder.NoDetector
	tm := measure(b, 0)
	if tm.attempted == 0 || tm.failed != tm.attempted {
		t.Fatalf("NoDetector: failed %d of %d, want failed_frac = 1", tm.failed, tm.attempted)
	}
}

func TestMeasurePasses(t *testing.T) {
	for _, sp := range smallSpecs {
		b := newBench(sp, 7, testWorkers)
		tm := measure(b, 50*time.Millisecond)
		if tm.failed != 0 {
			t.Fatalf("%s: %d of %d failed: %v", sp.name, tm.failed, tm.attempted, tm.firstErr)
		}
		if len(tm.run) == 0 || len(tm.base) != len(tm.run) || len(b.setup) == 0 {
			t.Errorf("%s: %d run, %d base, %d setup samples", sp.name, len(tm.run), len(tm.base), len(b.setup))
		}
		if sp.replay && len(tm.captureBytes) != len(tm.run) {
			t.Errorf("%s: %d capture samples for %d runs", sp.name, len(tm.captureBytes), len(tm.run))
		}
	}
}

func TestReplaySampleChecksVerdict(t *testing.T) {
	b := newBench(smallSpecs[3], 5, testWorkers)
	log := &spanLog{t0: time.Now()}
	s, err := b.runReplaySample(log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.res.Entries == 0 || s.capture.Bytes == 0 {
		t.Errorf("empty replay: %d entries, %d bytes", s.res.Entries, s.capture.Bytes)
	}
	var names []string
	for _, sp := range log.spans {
		names = append(names, sp.Name)
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	if !slices.Equal(names, []string{"record", "trace.Load", "replay.Run"}) {
		t.Errorf("spans %v", names)
	}
}

func TestPlantSeed(t *testing.T) {
	a, b := newPlant(1), newPlant(1)
	if a != b {
		t.Fatal("same seed, different plants")
	}
	addrs := map[uint64]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		p := newPlant(seed)
		set := []uint64{p.futRace, p.spawnRace, p.futSafe, p.spawnSafe}
		for _, x := range set {
			if x < plantBase {
				t.Fatalf("seed %d: address %d below plantBase", seed, x)
			}
			addrs[x] = true
		}
		slices.Sort(set)
		if len(slices.Compact(set)) != 4 {
			t.Fatalf("seed %d: addresses not distinct", seed)
		}
	}
	if len(addrs) < 40 {
		t.Errorf("20 seeds chose only %d distinct addresses", len(addrs))
	}
}

// TestMetricNames pins the metric lists to BENCHMARK.json at the
// repository root.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if got := names(cfg.Workloads); !slices.Equal(got, specNames) {
		t.Errorf("workloads %v, benchmark has %v", got, specNames)
	}
	if got := names(cfg.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, benchmark prints %v", got, endToEnd)
	}
	if got := names(cfg.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, benchmark prints %v", got, perLayer)
	}
}
