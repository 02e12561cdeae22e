// Package trace is a lightweight structured event log for the simulator:
// every subsystem appends timestamped events, and tests and tools inspect
// or print them. It deliberately has no levels or sinks — the simulator
// is deterministic, so the trace is a complete, replayable account.
package trace

import (
	"fmt"
	"io"
	"strings"

	"gemini/internal/simclock"
)

// Event is one recorded occurrence.
type Event struct {
	At      simclock.Time
	Subject string // e.g. "root-agent", "worker-3"
	Kind    string // e.g. "failure-detected", "recovery-complete"
	Detail  string
}

func (e Event) String() string {
	return fmt.Sprintf("%12s  %-12s %-20s %s", e.At, e.Subject, e.Kind, e.Detail)
}

// Log accumulates events in order of insertion (the simulator fires
// callbacks in time order, so insertion order is time order). It keeps
// every event: tests rely on a complete account.
type Log struct {
	now    func() simclock.Time
	events []Event
}

// NewLog creates a log reading timestamps from now; nil records zeros.
func NewLog(now func() simclock.Time) *Log {
	if now == nil {
		now = func() simclock.Time { return 0 }
	}
	return &Log{now: now}
}

// Add records an event at the current time. Detail follows Sprintf rules.
func (l *Log) Add(subject, kind, format string, args ...any) {
	l.events = append(l.events, Event{
		At:      l.now(),
		Subject: subject,
		Kind:    kind,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// Events returns all events, oldest first.
func (l *Log) Events() []Event { return l.events }

// Filter returns events whose kind matches exactly.
func (l *Log) Filter(kind string) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Last returns the most recent event of the given kind, if any.
func (l *Log) Last(kind string) (Event, bool) {
	for i := len(l.events) - 1; i >= 0; i-- {
		if e := l.events[i]; e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

// WriteTo dumps the log in a human-readable table.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
