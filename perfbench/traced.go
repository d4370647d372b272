package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// span is one coarse traced interval: a phase, a sample, or a replay
// step. Times are ns since the traced run began.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. Only the traced
// run's own goroutine uses it, so it needs no lock.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

func (l *spanLog) end(id int, attrs map[string]int64) {
	s := &l.spans[id-1]
	s.End = int64(time.Since(l.t0))
	s.Attrs = attrs
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSample is one online full-detection run assembled from the
// components sforder.Run builds for the zero-value Config, with the
// shims between them.
type tracedSample struct {
	wall   time.Duration
	counts sched.Counts
	racy   []uint64

	maintN, maintNs   int64 // core upkeep: dag events
	queryN, queryNs   int64 // core queries, nested in history calls
	accessN, accessNs int64 // history accesses, nested queries included
	closeN, closeNs   int64 // history strand-close hook
	lockAcquires      int64
	flushes           int64
	reachMem, histMem int
}

// runTracedSample runs one fresh instance through the shims. fastPath
// turns on the history's fast path (tests only). It never sets
// sched.Options.Stats: that forces a shared per-access counter on the
// scheduler. The core and history gauges go on a registry directly.
func (b *bench) runTracedSample(fastPath bool) (*tracedSample, error) {
	in := b.newInstance()
	reach := core.New(core.Config{})
	rs := &reachShim{inner: reach}
	hist := detect.NewHistory(detect.Options{Reach: rs, LeftOf: reach.LeftOf, FastPath: fastPath})
	reg := obsv.NewRegistry()
	reach.RegisterStats(reg)
	hist.RegisterStats(reg)
	ts := &tracerShim{inner: reach}
	cs := &checkerShim{inner: hist}
	out := &tracedSample{}
	d, err := b.timed(func() (err error) {
		out.counts, err = sched.Run(sched.Options{Workers: b.workers, Tracer: ts, Checker: cs}, in.main)
		return err
	})
	out.wall = d
	if err != nil {
		return out, err
	}
	out.racy = hist.RacyAddrs()
	out.maintN, out.maintNs = ts.stat.total()
	out.queryN, out.queryNs = rs.stat.total()
	out.accessN, out.accessNs = cs.access.total()
	out.closeN, out.closeNs = cs.close.total()
	snap := reg.Snapshot()
	out.lockAcquires = snap["hist.lock_acquires"]
	out.flushes = snap["hist.batch_flushes"]
	out.reachMem, out.histMem = reach.MemBytes(), hist.MemBytes()
	if err := in.run.Verify(); err != nil {
		return out, err
	}
	return out, b.plant.checkRacy(out.racy)
}

// replaySample is one traced replay of a fresh capture: trace.Load then
// replay.Run, as sforder.Replay does with the zero-value ReplayConfig.
type replaySample struct {
	record, decode, run time.Duration
	capture             *trace.Capture
	res                 *replay.Result
}

func (b *bench) runReplaySample(log *spanLog, parent int) (*replaySample, error) {
	out := &replaySample{}
	id := log.begin("record", parent)
	d, err := b.record()
	log.end(id, map[string]int64{"bytes": int64(b.capture.Len())})
	out.record = d
	if err != nil {
		return out, err
	}
	id = log.begin("trace.Load", parent)
	out.decode, err = b.timed(func() (err error) {
		out.capture, err = trace.Load(bytes.NewReader(b.capture.Bytes()))
		return err
	})
	if err != nil {
		log.end(id, nil)
		return out, err
	}
	log.end(id, map[string]int64{"entries": int64(out.capture.Entries), "bytes": out.capture.Bytes})
	id = log.begin("replay.Run", parent)
	out.run, err = b.timed(func() (err error) {
		out.res, err = replay.Run(out.capture, replay.Options{Workers: b.workers})
		return err
	})
	if err != nil {
		log.end(id, nil)
		return out, err
	}
	log.end(id, map[string]int64{
		"rebuild_ns": int64(out.res.Rebuild), "detect_ns": int64(out.res.Detect),
		"merge_ns": int64(out.res.Merge), "queries": int64(out.res.Queries),
	})
	return out, b.plant.checkRacy(out.res.RacyAddrs)
}

// Shares of the traced run's time for its three phases.
const (
	splitShare  = 0.4
	onlineShare = 0.35
)

// runTraced is the separate traced run. It measures three phases on the
// workload's program and prints the per-layer metrics:
//
//  1. the differential split through the public API: interleaved base,
//     reach-only, full and record runs (Fig. 4's columns plus record);
//  2. online full detection through the shims;
//  3. record, trace.Load and replay.Run, each timed as a span.
func runTraced(b *bench, dur time.Duration, spansPath string) error {
	log := &spanLog{t0: time.Now()}
	var t tally
	root := log.begin("traced-run", 0)

	// Phase 1: differential split, one warm-up round first.
	phase := log.begin("split", root)
	var mem memDelta
	b.mem = &mem
	modes := []struct {
		name string
		run  func() (time.Duration, error)
	}{
		{"base", b.base}, {"reach", b.reachOnly}, {"full", b.full}, {"record", b.record},
	}
	wall := map[string][]float64{}
	alloc := map[string][]float64{}
	var gcCycles, gcPause []float64
	start := time.Now()
	for i := 0; i < minIterations+1 || time.Since(start) < time.Duration(splitShare*float64(dur)); i++ {
		errs := make([]error, len(modes))
		for j := range modes {
			m := modes[(i+j)%len(modes)]
			id := log.begin(m.name, phase)
			d, err := m.run()
			log.end(id, map[string]int64{"alloc_bytes": int64(mem.allocBytes), "gc_cycles": int64(mem.gcCycles)})
			errs[j] = err
			if i == 0 || err != nil {
				continue
			}
			wall[m.name] = append(wall[m.name], ms(d))
			alloc[m.name] = append(alloc[m.name], float64(mem.allocBytes))
			if m.name == "full" {
				gcCycles = append(gcCycles, float64(mem.gcCycles))
				gcPause = append(gcPause, float64(mem.gcPauseNs)/1e6)
			}
		}
		t.add(errs...)
		if i == 0 {
			start = time.Now()
		}
	}
	b.mem = nil
	log.end(phase, nil)

	// Phase 2: online detection through the shims.
	phase = log.begin("traced-online", root)
	var samples []*tracedSample
	start = time.Now()
	for i := 0; i < minIterations || time.Since(start) < time.Duration(onlineShare*float64(dur)); i++ {
		id := log.begin("sample", phase)
		s, err := b.runTracedSample(false)
		log.end(id, map[string]int64{
			"maint_n": s.maintN, "maint_ns": s.maintNs,
			"query_n": s.queryN, "query_ns": s.queryNs,
			"access_n": s.accessN, "access_ns": s.accessNs,
			"close_n": s.closeN, "close_ns": s.closeNs,
		})
		if t.add(err) {
			samples = append(samples, s)
		}
	}
	log.end(phase, nil)

	// Phase 3: record, decode and replay.
	phase = log.begin("traced-replay", root)
	var replays []*replaySample
	start = time.Now()
	remaining := time.Duration((1 - splitShare - onlineShare) * float64(dur))
	for i := 0; i < minIterations || time.Since(start) < remaining; i++ {
		id := log.begin("sample", phase)
		s, err := b.runReplaySample(log, id)
		log.end(id, nil)
		if t.add(err) {
			replays = append(replays, s)
		}
	}
	log.end(phase, nil)
	log.end(root, nil)

	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
	if spansPath != "" {
		if err := log.writeFile(spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r := newReport()
	layerMetrics(r, b.workers, wall, alloc, samples)
	r.set("gc.cycles", median(gcCycles), "count")
	r.set("gc.pause_ms", median(gcPause), "ms")
	replayMetrics(r, wall, replays)
	r.set("traced.overhead_x", medianOf(samples, func(s *tracedSample) float64 { return ms(s.wall) })/median(wall["full"]), "x")
	r.set("split.reach_traced_over_diff", r.metrics["reach.traced_ms"].Value/r.metrics["reach.maint_ms"].Value, "x")
	r.set("split.hist_traced_over_diff", r.metrics["hist.traced_ms"].Value/r.metrics["hist.ms"].Value, "x")
	r.set("failed_frac", float64(t.failed)/float64(t.attempted), "ratio")
	return r.write(os.Stdout, t, perLayer)
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// layerMetrics sets the sched, core and history metrics. Busy times of
// the traced layers are summed over workers, so they are divided by the
// worker count to compare with wall-clock differences.
func layerMetrics(r *report, workers int, wall, alloc map[string][]float64, samples []*tracedSample) {
	p := float64(workers)
	base, reach, full := median(wall["base"]), median(wall["reach"]), median(wall["full"])
	r.set("sched.base_ms", base, "ms")
	r.set("sched.self_ms", medianOf(samples, func(s *tracedSample) float64 {
		return ms(s.wall) - float64(s.maintNs+s.accessNs+s.closeNs)/p/1e6
	}), "ms")
	r.set("sched.strands", medianOf(samples, func(s *tracedSample) float64 { return float64(s.counts.Strands) }), "count")
	r.set("sched.futures", medianOf(samples, func(s *tracedSample) float64 { return float64(s.counts.Futures) }), "count")
	r.set("sched.steals", medianOf(samples, func(s *tracedSample) float64 { return float64(s.counts.Steals) }), "count")

	r.set("reach.maint_ms", reach-base, "ms")
	r.set("reach.traced_ms", medianOf(samples, func(s *tracedSample) float64 { return float64(s.maintNs) / p / 1e6 }), "ms")
	r.set("reach.events", medianOf(samples, func(s *tracedSample) float64 { return float64(s.maintN) }), "count")
	r.set("reach.event_ns", medianOf(samples, func(s *tracedSample) float64 { return float64(s.maintNs) / float64(s.maintN) }), "ns")
	r.set("reach.queries", medianOf(samples, func(s *tracedSample) float64 { return float64(s.queryN) }), "count")
	r.set("reach.query_ns", medianOf(samples, func(s *tracedSample) float64 { return float64(s.queryNs) / float64(max(s.queryN, 1)) }), "ns")
	r.set("reach.mem_mb", medianOf(samples, func(s *tracedSample) float64 { return float64(s.reachMem) / 1e6 }), "MB")

	accesses := medianOf(samples, func(s *tracedSample) float64 { return float64(s.accessN) })
	r.set("hist.ms", full-reach, "ms")
	r.set("hist.traced_ms", medianOf(samples, func(s *tracedSample) float64 { return float64(s.accessNs+s.closeNs) / p / 1e6 }), "ms")
	r.set("hist.accesses", accesses, "count")
	r.set("hist.access_ns", medianOf(samples, func(s *tracedSample) float64 {
		return float64(s.accessNs+s.closeNs-s.queryNs) / float64(s.accessN)
	}), "ns")
	r.set("hist.lock_per_access", medianOf(samples, func(s *tracedSample) float64 { return float64(s.lockAcquires) / float64(s.accessN) }), "ratio")
	r.set("hist.alloc_b_per_access", (median(alloc["full"])-median(alloc["reach"]))/accesses, "B")
	r.set("hist.flushes", medianOf(samples, func(s *tracedSample) float64 { return float64(s.flushes) }), "count")
	r.set("hist.flush_ms", medianOf(samples, func(s *tracedSample) float64 { return float64(s.closeNs) / p / 1e6 }), "ms")
	r.set("hist.mem_mb", medianOf(samples, func(s *tracedSample) float64 { return float64(s.histMem) / 1e6 }), "MB")
}

// replayMetrics sets the trace and replay metrics.
func replayMetrics(r *report, wall map[string][]float64, replays []*replaySample) {
	r.set("trace.encode_ms", median(wall["record"])-median(wall["base"]), "ms")
	r.set("trace.decode_ms", medianOf(replays, func(s *replaySample) float64 { return ms(s.decode) }), "ms")
	r.set("trace.decode_mb_per_s", medianOf(replays, func(s *replaySample) float64 {
		return float64(s.capture.Bytes) / 1e6 / s.decode.Seconds()
	}), "MB/s")
	r.set("trace.capture_mb", medianOf(replays, func(s *replaySample) float64 { return float64(s.capture.Bytes) / 1e6 }), "MB")
	r.set("trace.entries", medianOf(replays, func(s *replaySample) float64 { return float64(s.capture.Entries) }), "count")
	r.set("trace.b_per_access", medianOf(replays, func(s *replaySample) float64 {
		return float64(s.capture.Bytes) / float64(s.capture.Entries)
	}), "B")
	r.set("replay.rebuild_ms", medianOf(replays, func(s *replaySample) float64 { return ms(s.res.Rebuild) }), "ms")
	r.set("replay.detect_ms", medianOf(replays, func(s *replaySample) float64 { return ms(s.res.Detect) }), "ms")
	r.set("replay.merge_ms", medianOf(replays, func(s *replaySample) float64 { return ms(s.res.Merge) }), "ms")
	r.set("replay.queries", medianOf(replays, func(s *replaySample) float64 { return float64(s.res.Queries) }), "count")
	r.set("replay.shard_balance", medianOf(replays, func(s *replaySample) float64 {
		return float64(s.res.MaxShardEntries) * float64(s.res.Shards) / float64(s.res.Entries)
	}), "ratio")
}
