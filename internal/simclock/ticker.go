package simclock

import (
	"fmt"
	"math"
)

// Ticker fires a callback at a fixed period until stopped, mirroring the
// heartbeat loops that GEMINI agents run against the key-value store.
// It owns one event for its whole life and rearms it after each firing,
// so a running ticker allocates nothing.
type Ticker struct {
	engine *Engine
	period Duration
	fn     func(Time)
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

func (t *Ticker) fire() {
	if t.stop {
		return
	}
	t.fn(t.engine.Now())
	if !t.stop {
		t.engine.Rearm(t.next, t.engine.Now().Add(t.period))
	}
}

// Stop cancels future firings. It is safe to call from within the callback.
func (t *Ticker) Stop() {
	t.stop = true
	t.next.Cancel()
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stop }
