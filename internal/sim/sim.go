// Package sim provides a small discrete-event simulation core used by the
// DRAM, memory-controller, and DTL models: a virtual nanosecond clock, a
// 4-ary min-heap event queue, and repeating interval timers.
//
// All simulated time in this repository is expressed in integer nanoseconds
// (type Time). The simulation is single-threaded and deterministic: events
// scheduled for the same instant fire in insertion order.
//
// The event queue stores scheduled events by value in an inlined 4-ary heap
// rather than going through container/heap's interface{} API: no event is
// ever boxed, so the steady-state schedule/fire cycle (pop one event, push
// its successor) performs zero allocations. The 4-ary shape halves the tree
// depth of a binary heap and keeps each node's children in one cache line,
// which measurably shortens Step on event-dense runs.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

type scheduledEvent struct {
	at   Time
	seq  uint64 // tiebreaker: insertion order
	fire Event
}

// before orders events by time, then insertion order.
func (e *scheduledEvent) before(o *scheduledEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// heapArity is the fan-out of the event heap. Four children per node keeps
// sift-down comparisons cache-local and the tree shallow.
const heapArity = 4

// Engine is a deterministic discrete-event simulator.
// The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events []scheduledEvent // 4-ary min-heap ordered by (at, seq)
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// push inserts ev, restoring the heap property by sifting up.
func (e *Engine) push(ev scheduledEvent) {
	e.events = append(e.events, ev)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event, sifting the tail element down.
func (e *Engine) pop() scheduledEvent {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = scheduledEvent{} // drop the closure reference for the GC
	h = h[:n]
	e.events = h

	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// At schedules fn to run at the absolute virtual time at.
// Scheduling in the past panics: it would violate causality and always
// indicates a model bug.
func (e *Engine) At(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(scheduledEvent{at: at, seq: e.seq, fire: fn})
}

// After schedules fn to run delay nanoseconds from now.
func (e *Engine) After(delay Time, fn Event) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// ticker is the reusable state behind Every: one ticker, one rescheduling
// closure, allocated once at setup. Steady-state ticks re-push the same
// closure value into the (non-boxing) event heap, so a firing interval
// timer allocates nothing.
type ticker struct {
	e       *Engine
	period  Time
	fn      Event
	fire    Event // self-rescheduling wrapper, built once
	stopped bool
}

// Every schedules fn to run every period, starting one period from now,
// until the returned cancel function is called. A non-positive period panics.
func (e *Engine) Every(period Time, fn Event) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &ticker{e: e, period: period, fn: fn}
	t.fire = func(now Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		if !t.stopped {
			t.e.At(t.e.now+t.period, t.fire)
		}
	}
	e.After(period, t.fire)
	return func() { t.stopped = true }
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fire(e.now)
	return true
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// NextEventAt reports the earliest pending event's time without firing it;
// ok is false when the queue is empty. A caller that steps its own timeline
// between engine events (the controller replay loop) uses it to find the
// next boundary.
func (e *Engine) NextEventAt() (at Time, ok bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// RunUntil fires every pending event with time ≤ deadline in (time,
// insertion) order, then advances the clock to deadline (even if no event
// was pending there). A deadline before now fires nothing and leaves the
// clock where it is.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// Advance moves the clock forward by d without firing events scheduled in
// between; it panics if any such event exists. Use it only in models that
// manage their own timelines (e.g. trace replay) between event batches.
func (e *Engine) Advance(d Time) {
	target := e.now + d
	if len(e.events) > 0 && e.events[0].at < target {
		panic(fmt.Sprintf("sim: Advance(%v) would skip event at %v", d, e.events[0].at))
	}
	e.now = target
}
