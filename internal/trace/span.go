// Package trace is the simulator's structured observability layer. A
// Tracer records spans (begin/end with nesting), instants, and counter
// samples on named tracks — enough structure for the Perfetto exporter
// to render one simulated run as a timeline, and for tests and tools to
// read a subsystem's event record back as instants. It deliberately has
// no levels or sinks: the simulator is deterministic, so the trace is a
// complete, replayable account. Tracing is strictly an observer: it
// reads the clock and appends records, never schedules events, so a
// traced run replays bit-identically to an untraced one.
//
// The disabled path is free: a nil *Tracer yields nil *Track handles, and
// every Track method no-ops on a nil receiver without allocating. Hot
// paths therefore call tracing hooks unconditionally with already-built
// arguments; anything that needs formatting checks Enabled() first.
package trace

import (
	"fmt"

	"gemini/internal/simclock"
)

// Subsystem categories, used as the `cat` of exported events. The
// tracelint tool and the CI smoke gate count distinct categories.
const (
	CatTraining    = "training"
	CatNetsim      = "netsim"
	CatAgent       = "agent"
	CatChaos       = "chaos"
	CatKVStore     = "kvstore"
	CatExperiments = "experiments"
)

// Span is one completed interval on a track.
type Span struct {
	Name       string
	Cat        string
	Start, End simclock.Time
	// Args is a preformatted "k=v k=v" detail string shown in the
	// Perfetto event pane; empty means no arguments.
	Args string
}

// Instant is a point event on a track.
type Instant struct {
	Name string
	Cat  string
	At   simclock.Time
	Args string
}

// Sample is one counter observation on a track.
type Sample struct {
	Name  string
	At    simclock.Time
	Value float64
}

// Tracer collects the structured trace of one simulated run. It is not
// safe for concurrent use: give each run its own tracer (per-run sinks)
// and merge at export time — WriteJSON accepts several tracers.
//
// A nil *Tracer is the disabled tracer; all methods are safe no-ops.
type Tracer struct {
	now    func() simclock.Time
	tracks []*Track
	index  map[[2]string]*Track
}

// NewTracer creates a tracer reading timestamps from now. A nil now
// records zeros until SetNow installs a clock — convenient when the
// simulation engine is built after the tracer.
func NewTracer(now func() simclock.Time) *Tracer {
	if now == nil {
		now = func() simclock.Time { return 0 }
	}
	return &Tracer{now: now, index: make(map[[2]string]*Track)}
}

// SetNow installs the clock the tracer reads for Begin/End/Instant
// timestamps. Explicit-time methods (Track.Span) are unaffected.
func (t *Tracer) SetNow(now func() simclock.Time) {
	if t == nil || now == nil {
		return
	}
	t.now = now
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Track returns the track named (process, thread), creating it on first
// use. Tracks keep creation order, which fixes the exported pid/tid
// layout deterministically. A nil tracer returns a nil (disabled) track.
func (t *Tracer) Track(process, thread string) *Track {
	if t == nil {
		return nil
	}
	key := [2]string{process, thread}
	if tk, ok := t.index[key]; ok {
		return tk
	}
	tk := &Track{Process: process, Thread: thread, tracer: t}
	t.index[key] = tk
	t.tracks = append(t.tracks, tk)
	return tk
}

// Tracks returns every track in creation order; nil for a nil tracer.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	return t.tracks
}

// Track is one named timeline (a machine's NIC, the root agent, …) a
// subsystem emits onto. A nil *Track is disabled; methods no-op.
type Track struct {
	Process, Thread string

	tracer   *Tracer
	spans    []Span
	open     []Span // LIFO stack of Begin'd, not-yet-End'd spans
	instants []Instant
	samples  []Sample
}

// Enabled reports whether emissions on this track are recorded. Call
// sites that must format arguments guard on this to keep the disabled
// path allocation-free.
func (tk *Track) Enabled() bool { return tk != nil }

// Begin opens a span at the current time. Spans nest LIFO per track:
// End closes the innermost open span.
func (tk *Track) Begin(cat, name string) {
	if tk == nil {
		return
	}
	tk.open = append(tk.open, Span{Name: name, Cat: cat, Start: tk.tracer.now()})
}

// BeginArgs is Begin with a preformatted argument string.
func (tk *Track) BeginArgs(cat, name, args string) {
	if tk == nil {
		return
	}
	tk.open = append(tk.open, Span{Name: name, Cat: cat, Start: tk.tracer.now(), Args: args})
}

// End closes the innermost open span at the current time. Ending with no
// open span panics — it is always a pairing bug.
func (tk *Track) End() {
	if tk == nil {
		return
	}
	n := len(tk.open) - 1
	if n < 0 {
		panic(fmt.Sprintf("trace: End on track %s/%s with no open span", tk.Process, tk.Thread))
	}
	sp := tk.open[n]
	tk.open = tk.open[:n]
	sp.End = tk.tracer.now()
	tk.spans = append(tk.spans, sp)
}

// Span records an already-completed interval with explicit bounds — the
// pattern for producers that only learn a span's extent when it finishes
// (a network flow, a copy). All arguments are plain values, so the
// disabled (nil-receiver) call neither allocates nor boxes.
func (tk *Track) Span(cat, name string, start, end simclock.Time) {
	if tk == nil {
		return
	}
	tk.spans = append(tk.spans, Span{Name: name, Cat: cat, Start: start, End: end})
}

// SpanArgs is Span with a preformatted argument string.
func (tk *Track) SpanArgs(cat, name string, start, end simclock.Time, args string) {
	if tk == nil {
		return
	}
	tk.spans = append(tk.spans, Span{Name: name, Cat: cat, Start: start, End: end, Args: args})
}

// Instant records a point event at the current time.
func (tk *Track) Instant(cat, name string) {
	if tk == nil {
		return
	}
	tk.instants = append(tk.instants, Instant{Name: name, Cat: cat, At: tk.tracer.now()})
}

// InstantArgs is Instant with a preformatted argument string.
func (tk *Track) InstantArgs(cat, name, args string) {
	if tk == nil {
		return
	}
	tk.instants = append(tk.instants, Instant{Name: name, Cat: cat, At: tk.tracer.now(), Args: args})
}

// InstantArgsAt records a point event with an explicit timestamp and a
// preformatted argument string — for producers that walk precomputed
// event lists (runsim) rather than a live clock.
func (tk *Track) InstantArgsAt(cat, name string, at simclock.Time, args string) {
	if tk == nil {
		return
	}
	tk.instants = append(tk.instants, Instant{Name: name, Cat: cat, At: at, Args: args})
}

// Sample records a counter observation at the current time; exported as
// a Perfetto counter track.
func (tk *Track) Sample(name string, value float64) {
	if tk == nil {
		return
	}
	tk.samples = append(tk.samples, Sample{Name: name, At: tk.tracer.now(), Value: value})
}

// SampleAt is Sample with an explicit timestamp.
func (tk *Track) SampleAt(name string, at simclock.Time, value float64) {
	if tk == nil {
		return
	}
	tk.samples = append(tk.samples, Sample{Name: name, At: at, Value: value})
}

// Spans returns the completed spans in completion order.
func (tk *Track) Spans() []Span {
	if tk == nil {
		return nil
	}
	return tk.spans
}

// OpenSpans returns the number of Begin'd spans not yet ended.
func (tk *Track) OpenSpans() int {
	if tk == nil {
		return 0
	}
	return len(tk.open)
}

// Instants returns the recorded point events in order.
func (tk *Track) Instants() []Instant {
	if tk == nil {
		return nil
	}
	return tk.instants
}

// Filter returns the recorded instants with the given name, in order.
func (tk *Track) Filter(name string) []Instant {
	var out []Instant
	for _, in := range tk.Instants() {
		if in.Name == name {
			out = append(out, in)
		}
	}
	return out
}

// Last returns the most recent instant with the given name, if any.
func (tk *Track) Last(name string) (Instant, bool) {
	ins := tk.Instants()
	for i := len(ins) - 1; i >= 0; i-- {
		if ins[i].Name == name {
			return ins[i], true
		}
	}
	return Instant{}, false
}

// Samples returns the recorded counter samples in order.
func (tk *Track) Samples() []Sample {
	if tk == nil {
		return nil
	}
	return tk.samples
}
