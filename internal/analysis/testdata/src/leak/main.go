// Fixture for SF004 leaked-handle: handles escaping into struct
// fields, globals, and channels, where sequential get-reachability can
// no longer be followed statically. Local slice storage is the blessed
// fan-out idiom and must stay silent.
package main

import "sforder"

type box struct {
	fut *sforder.Future
}

var global *sforder.Future

func fieldStore(t *sforder.Task) {
	b := &box{}
	b.fut = t.Create(func(*sforder.Task) any { return 1 }) // want SF004
	t.Get(b.fut)
}

func globalStore(t *sforder.Task) {
	global = t.Create(func(*sforder.Task) any { return 1 }) // want SF004
	t.Get(global)
}

func channelSend(t *sforder.Task, ch chan *sforder.Future) {
	ch <- t.Create(func(*sforder.Task) any { return 1 }) // want SF004
}

func literalStore(t *sforder.Task) box {
	return box{fut: t.Create(func(*sforder.Task) any { return 1 })} // want SF004
}

func localSlice(t *sforder.Task) {
	futs := make([]*sforder.Future, 2)
	for i := range futs {
		futs[i] = t.Create(func(*sforder.Task) any { return 1 }) // ok: local slice
	}
	for _, h := range futs {
		t.Get(h)
	}
}

func main() {
	fieldStore(nil)
	globalStore(nil)
	channelSend(nil, nil)
	_ = literalStore(nil)
	localSlice(nil)
}
