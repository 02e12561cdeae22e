package simclock

import (
	"fmt"
	"math"
)

// Ticker fires a callback at a fixed period until stopped, mirroring the
// heartbeat loops that GEMINI agents run against the key-value store.
// It owns one event for its whole life and rearms it after each firing,
// so a running ticker allocates nothing.
//
// A ticker may also tick silently (SetSilent): a silent tick is the same
// event, rearmed the same way, so it keeps its place in the order, but
// fn does not run and Run does not count it.
type Ticker struct {
	engine *Engine
	period Duration
	fn     func(Time)
	silent func(Time) bool
	next   EventID
	stop   bool
}

// NewTicker schedules fn to run every period, with the first firing one
// period from now. The callback receives the firing time.
func NewTicker(e *Engine, period Duration, fn func(Time)) *Ticker {
	// The negated comparison also rejects NaN; an infinite period would
	// arm an event that never fires.
	if !(period > 0) || math.IsInf(float64(period), 1) {
		panic(fmt.Sprintf("simclock: ticker period must be positive and finite, got %v s", float64(period)))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.next = e.After(period, t.fire)
	return t
}

// SetSilent installs a test each tick runs first: when it returns true,
// the tick was handled silently, fn does not run and Run does not count
// the tick. The test receives the tick's time. A nil test makes every
// tick fire.
func (t *Ticker) SetSilent(silent func(Time) bool) { t.silent = silent }

func (t *Ticker) fire() {
	if t.stop {
		return
	}
	now := t.engine.Now()
	if t.silent != nil && t.silent(now) {
		t.engine.uncounted = true
	} else {
		t.fn(now)
	}
	if !t.stop {
		t.engine.Rearm(t.next, now.Add(t.period))
	}
}

// Stop cancels future firings. It is safe to call from within the callback.
func (t *Ticker) Stop() {
	t.stop = true
	t.next.Cancel()
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stop }
