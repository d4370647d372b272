package main

import (
	"time"
)

// minIterations keeps a very short --seconds run meaningful.
const minIterations = 3

// tally counts iterations and failures. An iteration is one reference
// NoDetector run plus one detected run (online) or one record and one
// replay (record-replay); it fails when any of its runs errors, panics,
// fails Verify or reports the wrong racy-address set.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(errs ...error) bool {
	t.attempted++
	for _, err := range errs {
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timings are the untraced run's per-iteration samples, in ms.
type timings struct {
	tally
	base, run      []float64 // run = full detection, or record+replay
	record, replay []float64
	captureBytes   []float64 // per-access capture bytes, record-replay only
}

// measure runs untraced iterations for at least dur, alternating which
// side of each iteration goes first. The first iteration is a warm-up:
// checked and counted, but not timed.
func measure(b *bench, dur time.Duration) *timings {
	t := &timings{}
	start := time.Now()
	for i := 0; i < minIterations+1 || time.Since(start) < dur; i++ {
		var baseD time.Duration
		var baseErr error
		baseFirst := i%2 == 0
		if baseFirst {
			baseD, baseErr = b.base()
		}
		var ok bool
		if b.spec.replay {
			recD, recErr := b.record()
			var repD time.Duration
			var entries uint64
			var repErr error
			if recErr == nil {
				repD, entries, repErr = b.replay()
			}
			if !baseFirst {
				baseD, baseErr = b.base()
			}
			ok = t.add(baseErr, recErr, repErr)
			if ok && i > 0 {
				t.record = append(t.record, ms(recD))
				t.replay = append(t.replay, ms(repD))
				t.run = append(t.run, ms(recD+repD))
				t.captureBytes = append(t.captureBytes, float64(b.capture.Len())/float64(entries))
			}
		} else {
			fullD, fullErr := b.full()
			if !baseFirst {
				baseD, baseErr = b.base()
			}
			ok = t.add(baseErr, fullErr)
			if ok && i > 0 {
				t.run = append(t.run, ms(fullD))
			}
		}
		if ok && i > 0 {
			t.base = append(t.base, ms(baseD))
		}
		if i == 0 {
			// The warm-up iteration's set-up is the cold one.
			b.setup = b.setup[:0]
			start = time.Now()
		}
	}
	return t
}
