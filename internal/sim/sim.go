// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps virtual time as nanoseconds in an int64 and executes
// scheduled events in (time, sequence) order, so two runs with the same
// inputs produce byte-identical traces. All of atcsched's virtualization
// substrate (PCPUs, VCPUs, NICs, disks) is driven by Engines synchronized
// by a ShardGroup, one Engine per shard.
package sim

import (
	"fmt"
)

// Time is a point in (or span of) virtual time, in nanoseconds.
type Time int64

// Convenient spans of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to a Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// String formats t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a scheduled callback, always handled through Handle so that
// object recycling stays invisible to callers.
type Event struct {
	at       Time
	seq      uint64
	gen      uint64 // incremented on reuse; Handle validity check
	fn       func()
	index    int // heap index; -1 when not queued
	canceled bool
}

// Handle identifies one scheduled event. The zero Handle refers to
// nothing; Cancel on it (or on a handle whose event already fired or was
// canceled, even if the underlying object has been recycled for a new
// event) is a safe no-op.
type Handle struct {
	ev  *Event
	gen uint64
}

// live reports whether the handle still refers to its original event.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// At returns the virtual time the event will fire at (0 for a dead
// handle).
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.ev.at
}

// Canceled reports whether the event was canceled or already fired.
func (h Handle) Canceled() bool { return !h.live() || h.ev.canceled }

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). The
// heap is the simulator's hottest data structure: every Schedule, Step
// and Cancel touches it. A 4-ary layout is ~half as deep as a binary
// heap (fewer comparisons and cache lines per sift), and the inlined
// sift loops avoid container/heap's per-element interface dispatch.
// Children of node i live at 4i+1..4i+4; each *Event carries its slot
// in index so Cancel can remove in O(log₄ n).
type eventQueue []*Event

// before reports heap order: earlier time wins, sequence breaks ties so
// same-instant events fire in scheduling order.
func before(x, y *Event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// push appends ev and restores heap order.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

// popMin removes and returns the earliest event.
func (q *eventQueue) popMin() *Event {
	a := *q
	min := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = nil
	a = a[:n]
	*q = a
	if n > 0 {
		a[0] = last
		q.siftDown(0)
	}
	min.index = -1
	return min
}

// remove deletes the event at slot i (Cancel's path).
func (q *eventQueue) remove(i int) {
	a := *q
	ev := a[i]
	n := len(a) - 1
	last := a[n]
	a[n] = nil
	a = a[:n]
	*q = a
	if i < n {
		a[i] = last
		q.siftDown(i)
		if last.index == i {
			q.siftUp(i)
		}
	}
	ev.index = -1
}

func (q *eventQueue) siftUp(i int) {
	a := *q
	ev := a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !before(ev, a[p]) {
			break
		}
		a[i] = a[p]
		a[i].index = i
		i = p
	}
	a[i] = ev
	ev.index = i
}

func (q *eventQueue) siftDown(i int) {
	a := *q
	n := len(a)
	ev := a[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(a[c], a[best]) {
				best = c
			}
		}
		if !before(a[best], ev) {
			break
		}
		a[i] = a[best]
		a[i].index = i
		i = best
	}
	a[i] = ev
	ev.index = i
}

// maxFreeEvents caps the Event recycle list. A burst of cancellations
// (e.g. a preemption storm cancelling slice timers) would otherwise grow
// the pool to the burst's size and pin that memory for the whole run;
// beyond the cap, retired events are simply dropped for the GC.
const maxFreeEvents = 4096

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	// executed counts events that have fired, for diagnostics.
	executed uint64
	// free recycles fired/canceled Event objects, capped at maxFreeEvents;
	// Handle generations make the recycling invisible (a stale Cancel is a
	// no-op).
	free []*Event
}

// New returns an Engine with the clock at zero and an empty event queue.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it always indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
		gen := ev.gen + 1
		*ev = Event{at: t, seq: e.seq, gen: gen, fn: fn, index: -1}
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn, index: -1}
	}
	e.seq++
	e.queue.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// Schedule schedules fn to run d after the current time.
func (e *Engine) Schedule(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel revokes a pending event. Canceling the zero Handle, an
// already-fired or already-canceled event is a no-op, even if the
// underlying object has since been recycled for a different event.
func (e *Engine) Cancel(h Handle) {
	if !h.live() || h.ev.canceled {
		return
	}
	ev := h.ev
	ev.canceled = true
	if ev.index >= 0 {
		e.queue.remove(ev.index)
	}
	ev.fn = nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// Step fires the next pending event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.popMin()
		if ev.canceled {
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: clock regression: event at %v, now %v", ev.at, e.now))
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		ev.canceled = true // fired; a late Cancel must be a no-op
		if len(e.free) < maxFreeEvents {
			e.free = append(e.free, ev)
		}
		e.executed++
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain queued. Stopping a run early is
// ShardGroup.RequestStop's job.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor runs for a span d of virtual time from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// NextEventAt returns the timestamp of the earliest pending event, or
// false when the queue is empty. The shard scheduler uses it to decide
// which engines have work inside a synchronization window.
func (e *Engine) NextEventAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		e.queue.popMin()
	}
	return nil
}
