package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sforder"
	"sforder/internal/sched"
	"sforder/internal/workload"
)

// spec is one benchmark workload: a program from internal/workload and
// whether its detected run is online detection or record-then-replay.
// The programs' own inputs are fixed inside internal/workload (seeds 42
// and 1234); the benchmark seed only places the planted races.
// BENCHMARK.json and README.md say why each workload is in the set.
type spec struct {
	name    string
	program func() *workload.Benchmark
	replay  bool // detected run = NoDetector+Record, then sforder.Replay
}

var specs = []spec{
	// The history's read path: 4.33M reads, 0.13M writes.
	{name: "dense-reads", program: func() *workload.Benchmark { return workload.MM(128, 16) }},
	// Writes against reader lists and 2.2M Precedes queries.
	{name: "merge-writes", program: func() *workload.Benchmark { return workload.Sort(100_000, 2048) }},
	// 16k futures and 48k strands: sched and core upkeep show.
	{name: "future-chain", program: func() *workload.Benchmark { return workload.Pipeline(1000, 16, 8) }},
	// Production recording, then offline sharded replay.
	{name: "record-replay", program: func() *workload.Benchmark { return workload.Sort(100_000, 2048) }, replay: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// plantBase lies above every shipped program's shadow address range
// (the largest, sort(100000), uses addresses below 200000), so planted
// accesses never alias program locations.
const plantBase = 1 << 32

// plant is the set of four planted access pairs wrapped around a
// program: a future race (the continuation reads before Get), a spawn
// race (child and continuation both write before Sync), and the same two
// shapes ordered by the Get and the Sync, which must not race. The seed
// chooses the four addresses and whether each pair runs before or after
// the program body.
type plant struct {
	futRace, spawnRace uint64
	futSafe, spawnSafe uint64
	before             [4]bool // pair order: futRace, spawnRace, futSafe, spawnSafe
}

func newPlant(seed int64) plant {
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	var addr [4]uint64
	for i := range addr {
		for {
			a := plantBase + uint64(rng.Int63n(1<<24))
			if !seen[a] {
				seen[a] = true
				addr[i] = a
				break
			}
		}
	}
	p := plant{futRace: addr[0], spawnRace: addr[1], futSafe: addr[2], spawnSafe: addr[3]}
	for i := range p.before {
		p.before[i] = rng.Intn(2) == 0
	}
	return p
}

// racy is the exact sorted racy-address set a correct detector reports
// on a wrapped program.
func (p plant) racy() []uint64 {
	out := []uint64{p.futRace, p.spawnRace}
	slices.Sort(out)
	return out
}

// wrap returns main with the four planted pairs around it.
func (p plant) wrap(main func(*sched.Task)) func(*sched.Task) {
	pairs := [4]func(*sched.Task){
		func(t *sched.Task) {
			h := t.Create(func(c *sched.Task) any { c.Write(p.futRace); return nil })
			t.Read(p.futRace)
			t.Get(h)
		},
		func(t *sched.Task) {
			t.Spawn(func(c *sched.Task) { c.Write(p.spawnRace) })
			t.Write(p.spawnRace)
			t.Sync()
		},
		func(t *sched.Task) {
			h := t.Create(func(c *sched.Task) any { c.Write(p.futSafe); return nil })
			t.Get(h)
			t.Read(p.futSafe)
		},
		func(t *sched.Task) {
			t.Spawn(func(c *sched.Task) { c.Write(p.spawnSafe) })
			t.Sync()
			t.Write(p.spawnSafe)
		},
	}
	return func(t *sched.Task) {
		for i, pair := range pairs {
			if p.before[i] {
				pair(t)
			}
		}
		main(t)
		for i, pair := range pairs {
			if !p.before[i] {
				pair(t)
			}
		}
	}
}

// checkRacy compares a reported racy-address set against the planted
// one.
func (p plant) checkRacy(got []uint64) error {
	want := p.racy()
	if !slices.Equal(got, want) {
		return fmt.Errorf("racy addresses %v, want %v", got, want)
	}
	return nil
}

// racyAddrs returns the sorted distinct addresses of the race records.
func racyAddrs(races []sforder.Race) []uint64 {
	out := make([]uint64, 0, len(races))
	for _, r := range races {
		out = append(out, r.Addr)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// instance is one fresh program instance with its planted pairs.
type instance struct {
	run  *workload.Run
	main func(*sched.Task)
}

// bench runs samples of one workload and keeps their timings.
type bench struct {
	spec     spec
	program  *workload.Benchmark
	plant    plant
	workers  int
	detector sforder.Detector // the detected run's detector; SFOrder except in tests
	capture  bytes.Buffer     // reused record buffer
	mem      *memDelta        // when set, receives each timed call's memDelta

	setup []float64 // per-instance set-up seconds
}

func newBench(s spec, seed int64, workers int) *bench {
	return &bench{spec: s, program: s.program(), plant: newPlant(seed), workers: workers, detector: sforder.SFOrder}
}

// newInstance builds a fresh instance and records its set-up time.
func (b *bench) newInstance() instance {
	start := time.Now()
	r := b.program.Make()
	in := instance{run: r, main: b.plant.wrap(r.Main)}
	b.setup = append(b.setup, time.Since(start).Seconds())
	return in
}

// memDelta is the allocation and collection work of one timed call.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// timed runs f after a collection, so one sample's garbage does not
// land in the next sample's time, and returns f's wall-clock duration.
// A panic in f is returned as an error. When b.mem is non-nil it
// receives f's memDelta; the statistics are read outside the timed
// interval.
func (b *bench) timed(f func() error) (d time.Duration, err error) {
	runtime.GC()
	var before runtime.MemStats
	if b.mem != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	defer func() {
		d = time.Since(start)
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
		if b.mem != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			*b.mem = memDelta{
				allocBytes: after.TotalAlloc - before.TotalAlloc,
				gcCycles:   after.NumGC - before.NumGC,
				gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
			}
		}
	}()
	return 0, f()
}

// run executes one sforder.Run of a fresh instance under cfg, then
// verifies the output and, when checkRaces is set, that the racy-address
// set equals the planted one. Only the Run call is timed.
func (b *bench) run(cfg sforder.Config, checkRaces bool) (time.Duration, error) {
	in := b.newInstance()
	cfg.Workers = b.workers
	var res *sforder.Result
	d, err := b.timed(func() (err error) {
		res, err = sforder.Run(cfg, in.main)
		return err
	})
	if err != nil {
		return d, err
	}
	if err := in.run.Verify(); err != nil {
		return d, err
	}
	if checkRaces {
		return d, b.plant.checkRacy(racyAddrs(res.Races))
	}
	return d, nil
}

// base runs the uninstrumented program.
func (b *bench) base() (time.Duration, error) {
	return b.run(sforder.Config{Detector: sforder.NoDetector}, false)
}

// reachOnly runs the detector's reachability upkeep without access
// checks (the paper's "reach" column).
func (b *bench) reachOnly() (time.Duration, error) {
	return b.run(sforder.Config{Detector: b.detector, ReachabilityOnly: true}, false)
}

// full runs the program under the detector with the zero-value Config.
func (b *bench) full() (time.Duration, error) {
	return b.run(sforder.Config{Detector: b.detector}, true)
}

// record runs the program under NoDetector with Config.Record into the
// reused in-memory buffer.
func (b *bench) record() (time.Duration, error) {
	b.capture.Reset()
	return b.run(sforder.Config{Detector: sforder.NoDetector, Record: &b.capture}, false)
}

// replay runs sforder.Replay on the last capture with the zero-value
// ReplayConfig and checks its racy-address set. It returns the replayed
// entry count with the time.
func (b *bench) replay() (time.Duration, uint64, error) {
	var res *sforder.ReplayResult
	d, err := b.timed(func() (err error) {
		res, err = sforder.Replay(bytes.NewReader(b.capture.Bytes()), sforder.ReplayConfig{Workers: b.workers})
		return err
	})
	if err != nil {
		return d, 0, err
	}
	return d, res.Entries, b.plant.checkRacy(res.RacyAddrs)
}
