// Package replay re-runs race detection offline from an sftrace capture
// (internal/trace), decoupling detection cost from the traced program:
// record once, detect anywhere, with parallelism bounded by the replay
// worker count instead of the program's span.
//
// Replay is one streaming pipeline with three stages:
//
//  1. Loader. One goroutine reads the capture in order. It applies each
//     structure event to the reachability substrate (internal/core — OM
//     lists or DePa cords) exactly as the online tracer
//     would have, and routes each access block's entries, once, to the
//     shards that own their addresses (ShardOf). File order is a
//     happens-before-consistent linearization of the run (see
//     internal/trace), so every Tracer precondition holds.
//
//  2. Shards. Each of P workers applies its entries to a shard-private
//     detect.History — the paper's locked per-location last-writer/
//     readers algorithm, the same code online detection runs. A shard's
//     page locks are never contended, and its Precedes queries go
//     through a private memo to the shared, append-only reachability
//     state. Per-location detection is what the online detector
//     guarantees (a race is reported on a location iff one exists
//     there), and every location lives wholly inside one shard, so
//     sharding changes no verdict (DESIGN.md §4).
//
//  3. Merge. The shards' races are merged deterministically at the end.
//
// Run and RunStream are the two sources of that pipeline: a loaded
// Capture, and a capture's byte stream decoded as it is read.
package replay

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// Options configures a replay run.
type Options struct {
	// Workers is the number of detection shards/workers; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Reach selects the reachability substrate the dag is rebuilt on.
	// SubstrateDePa is the natural offline choice (immutable labels,
	// lock-free queries); both work.
	Reach core.Substrate
	// MaxRaces caps retained detailed race records (0 = 256), applied
	// after the deterministic merge.
	MaxRaces int
	// DedupByAddr retains at most one detailed record per address.
	// Exact under sharding: an address's accesses all land in one shard.
	DedupByAddr bool
	// Stats, when non-nil, receives the replay.* gauges.
	Stats *obsv.Registry
}

// Result reports a completed replay.
type Result struct {
	// Races holds up to MaxRaces detailed reports after the
	// deterministic merge; RaceCount is the total number detected.
	Races     []detect.Race
	RaceCount uint64
	// RacyAddrs is the sorted set of addresses with at least one race —
	// the location-level verdict compared against online detection.
	RacyAddrs []uint64
	// Strands and Futures describe the replayed dag.
	Strands uint64
	Futures uint64
	// Events and Entries count structure events and access entries.
	Events  uint64
	Entries uint64
	// Queries is the number of Precedes queries across all workers.
	Queries uint64
	// Shards is the worker count used. ShardEntries holds the access
	// entries each shard applied (they sum to Entries: every entry is
	// routed to exactly one shard) and MaxShardEntries the largest of
	// them (MaxShardEntries ≈ Entries/Shards means near-perfect
	// partitioning).
	Shards          int
	ShardEntries    []uint64
	MaxShardEntries uint64
	// Rebuild is the loader time spent applying structure events,
	// Detect the wall-clock time of the whole pipeline (which overlaps
	// the rebuild by construction), and Merge the final race merge.
	Rebuild time.Duration
	Detect  time.Duration
	Merge   time.Duration
	// ReachMemBytes estimates the rebuilt reachability footprint.
	ReachMemBytes int
	// StreamPeakBlocks/StreamPeakBytes are the high-water marks of
	// access blocks in flight between the loader and the shards —
	// bounded by StreamQueueCap+Workers+1 blocks regardless of capture
	// length.
	StreamPeakBlocks int64
	StreamPeakBytes  int64
}

// StreamQueueCap bounds how far the detection shards may lag behind the
// loader: at most StreamQueueCap + Workers access blocks are routed but
// not yet fully applied, plus one at the loader waiting to be routed.
// A block stays in flight until its last per-shard part is applied, so
// StreamQueueCap + Workers + 1 bounds a replay's in-flight blocks
// regardless of trace length.
const StreamQueueCap = 64

// ShardOf returns the detection shard owning addr among p shards: the
// same Fibonacci hash the shadow tables use, reduced modulo p. Exported
// so tests can construct racing pairs that straddle a shard boundary.
func ShardOf(addr uint64, p int) int {
	return int((addr * 0x9e3779b97f4a7c15) >> 32 % uint64(p))
}

// source is a replay input: structure events and access blocks in an
// order where each block follows the events introducing its strand.
// *trace.Stream is one; captureSource is the other.
type source interface {
	Next() (*trace.Event, *trace.AccessBlock, error)
	Strands() uint64
	Futures() int
	Events() uint64
	Entries() uint64
	Blocks() uint64
	Bytes() int64
}

// captureSource feeds a loaded capture to the pipeline: every structure
// event, then every access block. Applying the whole structure first
// only publishes more of the dag before a query — never less — so the
// verdicts equal the file-order interleaving's.
type captureSource struct {
	c      *trace.Capture
	ev, bl int
}

func (s *captureSource) Next() (*trace.Event, *trace.AccessBlock, error) {
	if s.ev < len(s.c.Events) {
		s.ev++
		return &s.c.Events[s.ev-1], nil, nil
	}
	if s.bl < len(s.c.Blocks) {
		s.bl++
		return nil, &s.c.Blocks[s.bl-1], nil
	}
	return nil, nil, io.EOF
}

func (s *captureSource) Strands() uint64 { return s.c.Strands }
func (s *captureSource) Futures() int    { return s.c.Futures }
func (s *captureSource) Events() uint64  { return uint64(len(s.c.Events)) }
func (s *captureSource) Entries() uint64 { return s.c.Entries }
func (s *captureSource) Blocks() uint64  { return uint64(len(s.c.Blocks)) }
func (s *captureSource) Bytes() int64    { return s.c.Bytes }

// Run replays a loaded capture and returns the offline detection result.
func Run(c *trace.Capture, opts Options) (*Result, error) {
	return run(&captureSource{c: c}, opts)
}

// RunStream replays a capture directly from its byte stream: the loader
// decodes the file once, in order, and detection of early blocks
// overlaps decoding of later ones. The capture is never resident in
// memory (see StreamQueueCap). Verdicts, and the merged report, equal
// Run's on the loaded capture.
func RunStream(r io.Reader, opts Options) (*Result, error) {
	st, err := trace.OpenStream(r)
	if err != nil {
		return nil, err
	}
	return run(st, opts)
}

// idStore holds the strand and future identities of an event-order
// rebuild. It grows only with the events actually read (each introduces
// at most 3 strands and 1 future), never from a decoded total, so a
// corrupt header cannot make it allocate ahead of the data.
type idStore struct {
	strands map[uint64]*sched.Strand
	futs    map[int]*sched.FutureTask
}

func (st *idStore) need(i int, id uint64) (*sched.Strand, error) {
	s := st.strands[id]
	if s == nil {
		return nil, fmt.Errorf("replay: event %d: strand %d referenced before introduction", i, id)
	}
	return s, nil
}

func (st *idStore) intro(i int, id uint64, f *sched.FutureTask) (*sched.Strand, error) {
	if st.strands[id] != nil {
		return nil, fmt.Errorf("replay: event %d: strand %d introduced twice", i, id)
	}
	s := &sched.Strand{ID: id, Fut: f}
	st.strands[id] = s
	return s, nil
}

func (st *idStore) needFut(i, id int) (*sched.FutureTask, error) {
	f := st.futs[id]
	if f == nil {
		return nil, fmt.Errorf("replay: event %d: future %d referenced before creation", i, id)
	}
	return f, nil
}

// maxFutureSkew bounds how far a created future's ID may run ahead of
// the futures introduced so far. The engine numbers futures densely and
// the recorder writes a create only after its ID is assigned, so a gap
// comes only from creates in flight on other workers at that moment.
// Every gp/cp bitmap is sized by a future ID; the bound keeps a corrupt
// ID from sizing one beyond the data read.
const maxFutureSkew = 1 << 12

func (st *idStore) introFut(i, id int, parent *sched.FutureTask) (*sched.FutureTask, error) {
	if id < 0 || id > len(st.futs)+maxFutureSkew || st.futs[id] != nil {
		return nil, fmt.Errorf("replay: event %d: future %d out of range or created twice", i, id)
	}
	f := &sched.FutureTask{ID: id, Parent: parent}
	st.futs[id] = f
	return f, nil
}

// applyEvent validates one structure event against the store and feeds
// it to the tracer — the single rebuild event switch.
func applyEvent(store *idStore, r sched.Tracer, i int, ev *trace.Event) error {
	switch ev.Op {
	case trace.OpRoot:
		if i != 0 {
			return fmt.Errorf("replay: event %d: misplaced root", i)
		}
		f, err := store.introFut(i, 0, nil)
		if err != nil {
			return err
		}
		root, err := store.intro(i, ev.U, f)
		if err != nil {
			return err
		}
		r.OnRoot(root)
	case trace.OpSpawn, trace.OpCreate:
		u, err := store.need(i, ev.U)
		if err != nil {
			return err
		}
		childFut := u.Fut
		var created *sched.FutureTask
		if ev.Op == trace.OpCreate {
			parent, err := store.needFut(i, ev.FutParent)
			if err != nil {
				return err
			}
			if created, err = store.introFut(i, ev.Fut, parent); err != nil {
				return err
			}
			childFut = created
		}
		first, err := store.intro(i, ev.A, childFut)
		if err != nil {
			return err
		}
		cont, err := store.intro(i, ev.B, u.Fut)
		if err != nil {
			return err
		}
		var ph *sched.Strand
		if ev.Placeholder > 0 {
			if ph, err = store.intro(i, ev.Placeholder-1, u.Fut); err != nil {
				return err
			}
		}
		if ev.Op == trace.OpCreate {
			r.OnCreate(u, first, cont, ph, created)
		} else {
			r.OnSpawn(u, first, cont, ph)
		}
	case trace.OpSync:
		k, err := store.need(i, ev.U)
		if err != nil {
			return err
		}
		// The sync strand is the placeholder eagerly introduced at the
		// region's first branch; the scheduler emits no sync event for
		// branch-free regions, so an unintroduced sync strand is
		// corruption, not a late introduction.
		s, err := store.need(i, ev.A)
		if err != nil {
			return fmt.Errorf("replay: event %d: sync strand %d was never placed at a branch", i, ev.A)
		}
		sinks := make([]*sched.Strand, len(ev.Sinks))
		for j, id := range ev.Sinks {
			if sinks[j], err = store.need(i, id); err != nil {
				return err
			}
		}
		r.OnSync(k, s, sinks)
	case trace.OpReturn:
		sink, err := store.need(i, ev.U)
		if err != nil {
			return err
		}
		r.OnReturn(sink)
	case trace.OpPut:
		sink, err := store.need(i, ev.U)
		if err != nil {
			return err
		}
		f, err := store.needFut(i, ev.Fut)
		if err != nil {
			return err
		}
		f.SetLast(sink)
		r.OnPut(sink, f)
	case trace.OpGet:
		u, err := store.need(i, ev.U)
		if err != nil {
			return err
		}
		f, err := store.needFut(i, ev.Fut)
		if err != nil {
			return err
		}
		if f.Last() == nil {
			return fmt.Errorf("replay: event %d: get of future %d before its put", i, ev.Fut)
		}
		g, err := store.intro(i, ev.A, u.Fut)
		if err != nil {
			return err
		}
		r.OnGet(u, g, f)
	default:
		return fmt.Errorf("replay: event %d: unexpected op %v", i, ev.Op)
	}
	return nil
}

// memoBits sizes the per-shard direct-mapped Precedes memo.
const memoBits = 14

// shard is one detection worker: a private access history over the
// addresses it owns, and the memo its history queries reachability
// through. Nothing here is touched by any other goroutine.
type shard struct {
	reach   *core.Reach
	hist    *detect.History
	memoU   []uint64 // key: u.ID+1 (0 = empty)
	memoV   []uint64 // key: v.ID
	memoOK  []bool
	queries uint64
	entries uint64
}

func newShard(reach *core.Reach, dedup bool) *shard {
	sh := &shard{
		reach:  reach,
		memoU:  make([]uint64, 1<<memoBits),
		memoV:  make([]uint64, 1<<memoBits),
		memoOK: make([]bool, 1<<memoBits),
	}
	// The locked history path (FastPath off) applies each entry as it
	// arrives; the cap is lifted so the merge sorts before it caps.
	sh.hist = detect.NewHistory(detect.Options{Reach: sh, MaxRaces: math.MaxInt, DedupByAddr: dedup})
	return sh
}

// Precedes implements detect.Reachability for the shard's history. A
// verdict for a fixed pair never changes once both strands are placed,
// so it is memoized.
func (sh *shard) Precedes(u, v *sched.Strand) bool {
	i := (u.ID*0x9e3779b97f4a7c15 ^ v.ID*0xc2b2ae3d27d4eb4f) >> (64 - memoBits)
	if sh.memoU[i] == u.ID+1 && sh.memoV[i] == v.ID {
		return sh.memoOK[i]
	}
	sh.queries++
	ok := sh.reach.PrecedesUncounted(u, v)
	sh.memoU[i], sh.memoV[i], sh.memoOK[i] = u.ID+1, v.ID, ok
	return ok
}

func (sh *shard) apply(pt part) {
	sh.entries += uint64(len(pt.addrs))
	for j, addr := range pt.addrs {
		if pt.kinds[j] == detect.AccessRead {
			sh.hist.Read(pt.s, addr)
		} else {
			sh.hist.Write(pt.s, addr)
		}
	}
}

// inflight is one source block between the loader and the shards.
// parts counts its per-shard parts not yet applied; the shard applying
// the last one releases the block, and the record — with the buffers
// its parts were routed into — is reused for a later block.
type inflight struct {
	parts atomic.Int32
	bytes int64
	addrs []uint64
	kinds []detect.AccessKind
}

// part is the slice of one source block owned by one shard.
type part struct {
	blk   *inflight
	shard int
	s     *sched.Strand
	addrs []uint64
	kinds []detect.AccessKind
}

// router splits blocks into per-shard parts. Its scratch buffers are
// the loader's; the parts' backing arrays belong to the block's
// inflight record, since shards read them after the loader has moved
// on. Released records come back through free.
type router struct {
	p      int
	owner  []int32
	cursor []int
	parts  []part
	free   chan *inflight
}

// take returns a released inflight record, or a new one.
func (rt *router) take() *inflight {
	select {
	case blk := <-rt.free:
		return blk
	default:
		return new(inflight)
	}
}

// route partitions a block's entries by owning shard, preserving file
// order within each shard, and returns the non-empty parts: each entry
// lands in exactly one part, the one ShardOf assigns it to.
func (rt *router) route(blk *inflight, s *sched.Strand, addrs []uint64, kinds []detect.AccessKind) []part {
	rt.parts = rt.parts[:0]
	if len(addrs) == 0 {
		return rt.parts
	}
	if rt.p == 1 {
		return append(rt.parts, part{blk: blk, s: s, addrs: addrs, kinds: kinds})
	}
	if cap(rt.owner) < len(addrs) {
		rt.owner = make([]int32, len(addrs))
	}
	owner := rt.owner[:len(addrs)]
	clear(rt.cursor)
	for j, addr := range addrs {
		o := ShardOf(addr, rt.p)
		owner[j] = int32(o)
		rt.cursor[o]++
	}
	// Counting sort: cursors start at each shard's offset and end at
	// the next shard's.
	off := 0
	for i, n := range rt.cursor {
		rt.cursor[i] = off
		off += n
	}
	if cap(blk.addrs) < len(addrs) {
		blk.addrs = make([]uint64, len(addrs))
		blk.kinds = make([]detect.AccessKind, len(addrs))
	}
	outA, outK := blk.addrs[:len(addrs)], blk.kinds[:len(addrs)]
	for j, o := range owner {
		k := rt.cursor[o]
		outA[k], outK[k] = addrs[j], kinds[j]
		rt.cursor[o]++
	}
	lo := 0
	for i, hi := range rt.cursor {
		if lo < hi {
			rt.parts = append(rt.parts, part{blk: blk, shard: i, s: s, addrs: outA[lo:hi], kinds: outK[lo:hi]})
		}
		lo = hi
	}
	return rt.parts
}

// maxTo raises peak to at least v.
func maxTo(peak *atomic.Int64, v int64) {
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// run is the replay pipeline over one source.
//
// Soundness is the order argument carried by the queues: the source
// yields every structure event before any block that depends on it, the
// loader applies each event before routing any later block, and a
// channel send happens-before its receive — so by the time a shard
// queries Precedes(u, v) for a block's strand, every label and bitmap
// the query reads is already published and immutable (labels are frozen
// at construction; a strand's gp is set before the first block naming
// it; OM label words are seqlock-validated optimistic reads designed for
// exactly this concurrency).
func run(src source, opts Options) (*Result, error) {
	if !opts.Reach.Valid() {
		return nil, fmt.Errorf("replay: unknown reachability substrate %v", opts.Reach)
	}
	p := opts.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	maxRaces := opts.MaxRaces
	if maxRaces == 0 {
		maxRaces = 256
	}
	reach := core.New(core.Config{Reach: opts.Reach})
	if opts.Stats != nil {
		reach.RegisterStats(opts.Stats)
	}

	// Backpressure: the loader takes a slot per routed block and the
	// shard applying its last part gives it back, so at most `limit`
	// blocks are routed and unfinished. Each holds at most one part per
	// shard, so a shard queue of `limit` never blocks the loader.
	limit := StreamQueueCap + p
	slots := make(chan struct{}, limit)
	var inBlocks, inBytes, peakBlocks, peakBytes atomic.Int64
	rt := &router{p: p, cursor: make([]int, p), free: make(chan *inflight, limit+1)}
	release := func(blk *inflight) {
		inBlocks.Add(-1)
		inBytes.Add(-blk.bytes)
		rt.free <- blk // never blocks: at most limit+1 records exist
		<-slots
	}
	shards := make([]*shard, p)
	queues := make([]chan part, p)
	var wg sync.WaitGroup
	for i := range shards {
		sh := newShard(reach, opts.DedupByAddr)
		q := make(chan part, limit)
		shards[i], queues[i] = sh, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := range q {
				sh.apply(pt)
				if pt.blk.parts.Add(-1) == 0 {
					release(pt.blk)
				}
			}
		}()
	}

	// The loader stops at the first error; the trailer check inside a
	// trace.Stream means a clean io.EOF is a complete, verified capture.
	store := &idStore{strands: map[uint64]*sched.Strand{}, futs: map[int]*sched.FutureTask{}}
	start := time.Now()
	var rebuild time.Duration
	var loadErr error
	events := 0
	for {
		ev, blk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			loadErr = err
			break
		}
		if ev != nil {
			t0 := time.Now()
			loadErr = applyEvent(store, reach, events, ev)
			rebuild += time.Since(t0)
			if loadErr != nil {
				break
			}
			events++
			continue
		}
		s := store.strands[blk.Strand]
		if s == nil {
			loadErr = fmt.Errorf("replay: access block names unknown strand %d", blk.Strand)
			break
		}
		in := rt.take()
		in.bytes = int64(len(blk.Addrs))*9 + 64
		maxTo(&peakBlocks, inBlocks.Add(1))
		maxTo(&peakBytes, inBytes.Add(in.bytes))
		slots <- struct{}{}
		parts := rt.route(in, s, blk.Addrs, blk.Kinds)
		if len(parts) == 0 {
			release(in)
			continue
		}
		in.parts.Store(int32(len(parts)))
		for _, pt := range parts {
			queues[pt.shard] <- pt
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if loadErr != nil {
		return nil, loadErr
	}

	res := &Result{
		Strands:          src.Strands(),
		Futures:          uint64(src.Futures()),
		Events:           src.Events(),
		Entries:          src.Entries(),
		Shards:           p,
		Rebuild:          rebuild,
		Detect:           time.Since(start),
		StreamPeakBlocks: peakBlocks.Load(),
		StreamPeakBytes:  peakBytes.Load(),
	}
	merge(res, shards, maxRaces)
	res.ReachMemBytes = reach.MemBytes()
	if opts.Stats != nil {
		registerStats(opts.Stats, res, int64(src.Blocks()), src.Bytes())
	}
	return res, nil
}

// merge folds the per-shard results into res deterministically: each
// shard's reports depend only on file order, so sorting by (addr,
// strand pair, kinds) makes the final report independent of worker
// interleaving and worker count. Sets res.Merge.
func merge(res *Result, shards []*shard, maxRaces int) {
	mergeStart := time.Now()
	for _, sh := range shards {
		res.RaceCount += sh.hist.RaceCount()
		res.Queries += sh.queries
		res.ShardEntries = append(res.ShardEntries, sh.entries)
		res.MaxShardEntries = max(res.MaxShardEntries, sh.entries)
		res.Races = append(res.Races, sh.hist.Races()...)
		res.RacyAddrs = append(res.RacyAddrs, sh.hist.RacyAddrs()...)
	}
	sort.Slice(res.Races, func(i, j int) bool {
		a, b := res.Races[i], res.Races[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.PrevStrand != b.PrevStrand {
			return a.PrevStrand < b.PrevStrand
		}
		if a.CurStrand != b.CurStrand {
			return a.CurStrand < b.CurStrand
		}
		return a.Prev < b.Prev
	})
	if len(res.Races) > maxRaces {
		res.Races = res.Races[:maxRaces]
	}
	sort.Slice(res.RacyAddrs, func(i, j int) bool { return res.RacyAddrs[i] < res.RacyAddrs[j] })
	res.Merge = time.Since(mergeStart)
}

// registerStats publishes the replay.* gauges for a completed run.
func registerStats(reg *obsv.Registry, res *Result, blocks, bytes int64) {
	vals := map[string]int64{
		"replay.events":             int64(res.Events),
		"replay.entries":            int64(res.Entries),
		"replay.blocks":             blocks,
		"replay.shards":             int64(res.Shards),
		"replay.max_shard_entries":  int64(res.MaxShardEntries),
		"replay.bytes":              bytes,
		"replay.wall_ns":            int64(res.Detect + res.Merge),
		"replay.rebuild_ns":         int64(res.Rebuild),
		"replay.detect_ns":          int64(res.Detect),
		"replay.merge_ns":           int64(res.Merge),
		"replay.queries":            int64(res.Queries),
		"replay.races":              int64(res.RaceCount),
		"replay.stream_peak_blocks": res.StreamPeakBlocks,
		"replay.stream_peak_bytes":  res.StreamPeakBytes,
	}
	for name, v := range vals {
		reg.RegisterFunc(name, func() int64 { return v })
	}
}
