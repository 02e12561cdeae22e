// Package simclock provides a deterministic discrete-event simulation
// engine with a virtual clock. All GEMINI experiments run on virtual time,
// so results are reproducible and independent of the host machine.
//
// Time is represented as float64 seconds since the start of the simulation.
// The engine delivers events in (time, priority, sequence) order; ties on
// time are broken first by priority and then by scheduling order, which
// keeps runs fully deterministic.
package simclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Common durations, for readability at call sites.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
	Day         Duration = 86400
)

// Forever is a time later than any event the engine will ever reach.
const Forever Time = Time(math.MaxFloat64)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return formatSeconds(float64(t)) }

func (d Duration) String() string { return formatSeconds(float64(d)) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// formatSeconds picks the unit from the magnitude and keeps the sign.
func formatSeconds(s float64) string {
	a := math.Abs(s)
	switch {
	case s == math.MaxFloat64:
		return "forever"
	case a >= 3600:
		return fmt.Sprintf("%.2fh", s/3600)
	case a >= 60:
		return fmt.Sprintf("%.2fm", s/60)
	case a >= 1:
		return fmt.Sprintf("%.3fs", s)
	case a >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fus", s*1e6)
	}
}

// An event is a callback scheduled at a point in virtual time.
type event struct {
	at       Time
	priority int
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 if popped
}

// EventID identifies a scheduled event so it can be canceled.
type EventID struct{ ev *event }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the event was
// still pending.
func (id EventID) Cancel() bool {
	if id.ev == nil || id.ev.canceled || id.ev.index < 0 {
		return false
	}
	id.ev.canceled = true
	return true
}

// Pending reports whether the event has neither fired nor been canceled.
func (id EventID) Pending() bool {
	return id.ev != nil && !id.ev.canceled && id.ev.index >= 0
}

// before reports whether a fires before b: (at, priority, seq) order.
// seq is unique, so this is a strict total order and any correct heap
// pops events in exactly the same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events with typed sift functions; it
// avoids container/heap's interface dispatch on the engine's hottest path.
// Every queued event's index is its slot.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// pop removes and returns the earliest event, marking it unqueued.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	old[0].index = 0
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	ev.index = -1
	return ev
}

// fix restores heap order after the event at slot i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down sifts the event at slot i toward the leaves and reports whether
// it moved.
func (h eventHeap) down(i int) bool {
	ev := h[i]
	start, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > start
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	running bool
	// uncounted is set by a silent tick, so that Run leaves the event
	// out of the count it returns.
	uncounted bool
}

// NewEngine returns an engine whose clock starts at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NextSeq returns the sequence number the next At, AtPriority, After or
// Rearm call will give its event. Callers compare two readings to learn
// whether anything was sequenced in between.
func (e *Engine) NextSeq() uint64 { return e.seq }

// Len returns the number of pending events (including canceled ones that
// have not yet been discarded).
func (e *Engine) Len() int { return len(e.queue) }

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past panics: it would silently reorder causality. So does a NaN
// time, which has no place in the order at all.
func (e *Engine) At(at Time, fn func()) EventID {
	return e.at(at, 0, fn)
}

// AtPriority schedules fn at time at with an explicit tie-break priority;
// lower priorities fire first among events at the same instant.
func (e *Engine) AtPriority(at Time, priority int, fn func()) EventID {
	return e.at(at, priority, fn)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) EventID {
	return e.at(e.now.Add(d), 0, fn)
}

func (e *Engine) at(at Time, priority int, fn func()) EventID {
	// The negated comparison also rejects NaN, which compares false
	// against everything and would otherwise fire last and leave the
	// clock at NaN for the rest of the run.
	if !(at >= e.now) {
		e.badTime("scheduling", at)
	}
	if fn == nil {
		panic("simclock: nil event function")
	}
	ev := &event{at: at, priority: priority, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(ev)
	return EventID{ev}
}

// Rearm reschedules an existing event to fire at the absolute time at,
// reusing its allocation: a still-pending event is moved in place, and a
// fired or canceled one is revived. The event keeps its callback and
// priority but is sequenced as if newly scheduled, so among same-instant
// same-priority events it fires after those already queued. Like At,
// rearming into the past or at a NaN time panics.
//
// Rearm exists for long-lived periodic events (tickers, the agent's
// lease sweep, the netsim fabric's completion, recompute and flow-start
// batch events, each copier's completion event) that would
// otherwise allocate a fresh event on every reschedule.
func (e *Engine) Rearm(id EventID, at Time) {
	ev := id.ev
	if ev == nil {
		panic("simclock: Rearm of zero EventID")
	}
	if !(at >= e.now) {
		e.badTime("rearming", at)
	}
	ev.at = at
	ev.canceled = false
	ev.seq = e.seq
	e.seq++
	if ev.index >= 0 {
		e.queue.fix(ev.index)
	} else {
		e.queue.push(ev)
	}
}

// badTime panics for an event time that is NaN or before now.
func (e *Engine) badTime(op string, at Time) {
	if math.IsNaN(float64(at)) {
		panic(fmt.Sprintf("simclock: %s event at NaN time", op))
	}
	panic(fmt.Sprintf("simclock: %s event at %v before now %v", op, at, e.now))
}

// Run executes events in order until the queue empties or the clock would
// pass until. It returns the number of events fired, leaving out silent
// ticks (Ticker.SetSilent). Events scheduled exactly at until still fire.
func (e *Engine) Run(until Time) int {
	if e.running {
		panic("simclock: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	fired := 0
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if ev.canceled {
			e.queue.pop()
			continue
		}
		if ev.at > until {
			break
		}
		e.queue.pop()
		e.now = ev.at
		ev.fn()
		if e.uncounted {
			e.uncounted = false
			continue
		}
		fired++
	}
	if e.now < until && until != Forever {
		// Advance the clock to the horizon so successive bounded runs
		// observe monotonic time even across empty stretches.
		e.now = until
	}
	return fired
}

// RunAll executes events until none remain.
func (e *Engine) RunAll() int { return e.Run(Forever) }

// Step fires exactly one pending event, if any, and reports whether an
// event fired. A silent tick is one such event.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		e.uncounted = false
		return true
	}
	return false
}

// PeekTime returns the time of the next pending event, or Forever if the
// queue is empty.
func (e *Engine) PeekTime() Time {
	for len(e.queue) > 0 {
		if e.queue[0].canceled {
			e.queue.pop()
			continue
		}
		return e.queue[0].at
	}
	return Forever
}
