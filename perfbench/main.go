// Command perfbench is the sforder repository benchmark. It runs one
// workload for a fixed time under the zero-value sforder.Config (Workers
// pinned to the machine's core count), checks every sample's output and
// race verdict, and prints each metric as a "name value unit" line
// followed by one JSON result object as the last line:
//
//	go run . --workload dense-reads --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 is the separate traced run that prints the per-layer split.
// See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// endToEnd and perLayer are the metric names of BENCHMARK.json, in
// order: the result object of --trace 0 carries endToEnd, that of
// --trace 1 carries perLayer.
var (
	endToEnd = []string{"run_ms.p50", "slowdown_x", "peak_rss_mb", "setup_s"}
	perLayer = []string{
		"sched.base_ms", "sched.self_ms", "sched.strands", "sched.futures", "sched.steals",
		"reach.maint_ms", "reach.traced_ms", "reach.events", "reach.event_ns",
		"reach.queries", "reach.query_ns", "reach.mem_mb",
		"hist.ms", "hist.traced_ms", "hist.accesses", "hist.access_ns",
		"hist.lock_per_access", "hist.alloc_b_per_access",
		"hist.flushes", "hist.flush_ms", "hist.mem_mb",
		"trace.encode_ms", "trace.decode_ms", "trace.decode_mb_per_s",
		"trace.capture_mb", "trace.entries", "trace.b_per_access",
		"replay.rebuild_ms", "replay.detect_ms", "replay.merge_ms",
		"replay.queries", "replay.shard_balance",
		"gc.cycles", "gc.pause_ms",
		"traced.overhead_x",
	}
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed choosing the planted race addresses and their placement")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	spans := flag.String("spans", "", "file the traced run writes its spans to (JSON lines)")
	flag.Parse()

	s, ok := specByName(*name)
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; workloads:")
		for _, s := range specs {
			fmt.Fprintf(os.Stderr, " %s", s.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	workers := runtime.NumCPU()
	b := newBench(s, *seed, workers)
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("workload %s seed %d workers %d trace %d\n", s.name, *seed, workers, *traceOn)

	var err error
	if *traceOn == 1 {
		err = runTraced(b, dur, *spans)
	} else {
		err = runTimed(b, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runTimed is the untraced run: it prints the end-to-end metrics.
func runTimed(b *bench, dur time.Duration) error {
	t := measure(b, dur)
	r := newReport()
	p50 := median(t.run)
	r.set("run_ms.p50", p50, "ms")
	r.set("run_ms.p75", quantile(t.run, 0.75), "ms")
	r.set("run_ms.p90", quantile(t.run, 0.9), "ms")
	r.set("slowdown_x", p50/median(t.base), "x")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("setup_s", median(b.setup), "s")
	r.set("base_ms.p50", median(t.base), "ms")
	if b.spec.replay {
		r.set("record_ms.p50", median(t.record), "ms")
		r.set("replay_ms.p50", median(t.replay), "ms")
		r.set("replay_ms.p90", quantile(t.replay, 0.9), "ms")
		r.set("capture_b_per_access", median(t.captureBytes), "B")
	}
	r.set("samples", float64(len(t.run)), "count")
	r.set("failed_frac", float64(t.failed)/float64(t.attempted), "ratio")
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
	return r.write(os.Stdout, t.tally, endToEnd)
}
