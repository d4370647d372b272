package main

import (
	"sync/atomic"
	_ "unsafe" // for go:linkname

	"sforder/internal/detect"
	"sforder/internal/sched"
)

// nanotime is the runtime's monotonic clock: one vDSO read, about half
// the cost of time.Now, which the shims pay twice per intercepted call.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// slotCount spreads a layer's counters so that workers running
// different strands rarely share a cache line.
const slotCount = 64

type slot struct {
	n, ns atomic.Int64
	_     [48]byte // pad to a cache line
}

// layerStat aggregates call count and busy time for one layer boundary.
type layerStat struct{ slots [slotCount]slot }

func (l *layerStat) add(key uint64, ns int64) {
	s := &l.slots[key%slotCount]
	s.n.Add(1)
	s.ns.Add(ns)
}

func (l *layerStat) total() (n, ns int64) {
	for i := range l.slots {
		n += l.slots[i].n.Load()
		ns += l.slots[i].ns.Load()
	}
	return n, ns
}

// tracerShim times every dag event the scheduler hands the reachability
// component (core's upkeep). It forwards sched.LaneTracer, so the
// engine keeps routing allocating events through the lane variants and
// core keeps its per-worker arenas.
type tracerShim struct {
	inner sched.LaneTracer
	stat  layerStat
}

func (t *tracerShim) SetLanes(n int) { t.inner.SetLanes(n) }

func (t *tracerShim) OnRoot(root *sched.Strand) {
	s := nanotime()
	t.inner.OnRoot(root)
	t.stat.add(root.ID, nanotime()-s)
}

func (t *tracerShim) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	s := nanotime()
	t.inner.OnSpawn(u, child, cont, placeholder)
	t.stat.add(u.ID, nanotime()-s)
}

func (t *tracerShim) OnCreate(u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	s := nanotime()
	t.inner.OnCreate(u, first, cont, placeholder, f)
	t.stat.add(u.ID, nanotime()-s)
}

func (t *tracerShim) OnSync(k, st *sched.Strand, childSinks []*sched.Strand) {
	s := nanotime()
	t.inner.OnSync(k, st, childSinks)
	t.stat.add(k.ID, nanotime()-s)
}

func (t *tracerShim) OnReturn(sink *sched.Strand) {
	s := nanotime()
	t.inner.OnReturn(sink)
	t.stat.add(sink.ID, nanotime()-s)
}

func (t *tracerShim) OnPut(sink *sched.Strand, f *sched.FutureTask) {
	s := nanotime()
	t.inner.OnPut(sink, f)
	t.stat.add(sink.ID, nanotime()-s)
}

func (t *tracerShim) OnGet(u, g *sched.Strand, f *sched.FutureTask) {
	s := nanotime()
	t.inner.OnGet(u, g, f)
	t.stat.add(u.ID, nanotime()-s)
}

func (t *tracerShim) OnSpawnLane(lane int, u, child, cont, placeholder *sched.Strand) {
	s := nanotime()
	t.inner.OnSpawnLane(lane, u, child, cont, placeholder)
	t.stat.add(uint64(lane), nanotime()-s)
}

func (t *tracerShim) OnCreateLane(lane int, u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	s := nanotime()
	t.inner.OnCreateLane(lane, u, first, cont, placeholder, f)
	t.stat.add(uint64(lane), nanotime()-s)
}

func (t *tracerShim) OnSyncLane(lane int, k, st *sched.Strand, childSinks []*sched.Strand) {
	s := nanotime()
	t.inner.OnSyncLane(lane, k, st, childSinks)
	t.stat.add(uint64(lane), nanotime()-s)
}

func (t *tracerShim) OnGetLane(lane int, u, g *sched.Strand, f *sched.FutureTask) {
	s := nanotime()
	t.inner.OnGetLane(lane, u, g, f)
	t.stat.add(uint64(lane), nanotime()-s)
}

// reachShim times the Precedes queries the access history makes; they
// run nested inside checker calls, so their time is the history's
// nested-child time.
type reachShim struct {
	inner detect.Reachability
	stat  layerStat
}

func (r *reachShim) Precedes(u, v *sched.Strand) bool {
	s := nanotime()
	ok := r.inner.Precedes(u, v)
	r.stat.add(v.ID, nanotime()-s)
	return ok
}

// closingChecker is the access history as the engine sees it.
type closingChecker interface {
	sched.AccessChecker
	sched.StrandCloser
}

// checkerShim times every access the scheduler hands the access history
// and every strand-close hook. It forwards sched.StrandCloser, so the
// fast path's per-strand batches still flush.
type checkerShim struct {
	inner  closingChecker
	access layerStat
	close  layerStat
}

func (c *checkerShim) Read(st *sched.Strand, addr uint64) {
	s := nanotime()
	c.inner.Read(st, addr)
	c.access.add(st.ID, nanotime()-s)
}

func (c *checkerShim) Write(st *sched.Strand, addr uint64) {
	s := nanotime()
	c.inner.Write(st, addr)
	c.access.add(st.ID, nanotime()-s)
}

func (c *checkerShim) StrandClose(st *sched.Strand) {
	s := nanotime()
	c.inner.StrandClose(st)
	c.close.add(st.ID, nanotime()-s)
}

var (
	_ sched.LaneTracer    = (*tracerShim)(nil)
	_ detect.Reachability = (*reachShim)(nil)
	_ sched.AccessChecker = (*checkerShim)(nil)
	_ sched.StrandCloser  = (*checkerShim)(nil)
)
