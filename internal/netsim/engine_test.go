package netsim

import (
	"fmt"
	"math"
	"testing"

	"gemini/internal/simclock"
)

// runContendedFabric drives a fabric through a contended mix of
// staggered flows — a ring, cross traffic joining one by one, and a burst
// of equal flows that drain together — recording every callback. The
// engine promises the exact same sequence on every run: completions fire
// in (ETA, flow-sequence) order, never in Go map-iteration order.
func runContendedFabric() []string {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 8, Config{EgressBytesPerSec: 1000, Alpha: 0.01})
	var order []string
	record := func(fl *Flow) {
		order = append(order, fmt.Sprintf("%s:%v@%v", fl.Label, fl.State(), e.Now()))
	}
	for i := 0; i < 8; i++ {
		f.StartFlow(i, (i+1)%8, 5000, fmt.Sprintf("ring%d", i), record)
		src, bytes, label := i, 2000+500*float64(i%3), fmt.Sprintf("cross%d", i)
		e.At(simclock.Time(0.5*float64(i)), func() { f.StartFlow(src, (src+4)%8, bytes, label, record) })
	}
	e.At(3, func() {
		for d := 1; d <= 4; d++ {
			f.StartFlow(0, d, 1000, fmt.Sprintf("burst%d", d), record)
		}
	})
	e.RunAll()
	return order
}

func TestCompletionOrderDeterministic(t *testing.T) {
	first := runContendedFabric()
	if len(first) != 20 {
		t.Fatalf("got %d callbacks, want 20 (every flow done)", len(first))
	}
	for run := 0; run < 3; run++ {
		again := runContendedFabric()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d callbacks, want %d", run, len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d: callback %d = %q, want %q", run, i, again[i], first[i])
			}
		}
	}
}

func TestSameInstantCompletionsFireInStartOrder(t *testing.T) {
	// Four equal flows from one source saturate its egress together and
	// drain at the same instant; callbacks must fire in start order.
	e, f := newTestFabric(t, 5, Config{EgressBytesPerSec: 100})
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		f.StartFlow(0, i+1, 1000, "eq", func(*Flow) { order = append(order, i) })
	}
	e.RunAll()
	if len(order) != 4 {
		t.Fatalf("got %d completions, want 4", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want [0 1 2 3]", order)
		}
	}
}

// A completion and a user event landing at the same instant: the
// completion (priority −10) fires first, so the user event sees the flow
// done and a concurrent flow's bytes settled to that instant.
func TestCompletionFiresBeforeSameInstantUserEvent(t *testing.T) {
	e, f := newTestFabric(t, 4, Config{EgressBytesPerSec: 100})
	var order []string
	var a, b *Flow
	// Scheduled before either flow starts, so only the priority layout
	// can put the completion first.
	e.At(10, func() {
		order = append(order, fmt.Sprintf("user:a=%v", a.State()))
		if rem := b.Remaining(); math.Abs(rem-9000) > 1e-6 {
			t.Errorf("concurrent flow remaining %v at t=10, want 9000", rem)
		}
	})
	a = f.StartFlow(0, 1, 1000, "a", func(fl *Flow) {
		order = append(order, fmt.Sprintf("a:%v", fl.State()))
	})
	b = f.StartFlow(2, 3, 10000, "b", nil)
	e.RunAll()
	if len(order) != 2 || order[0] != "a:done" || order[1] != "user:a=done" {
		t.Fatalf("callback order %v, want [a:done user:a=done]", order)
	}
	if a.FinishedAt() != 10 || b.FinishedAt() != 100 {
		t.Fatalf("finish times %v/%v, want 10/100", a.FinishedAt(), b.FinishedAt())
	}
}

func TestFabricStatsCounters(t *testing.T) {
	e, f := newTestFabric(t, 4, Config{EgressBytesPerSec: 100})
	f.StartFlow(0, 1, 1000, "a", nil)
	f.StartFlow(0, 2, 1000, "b", nil)
	f.StartFlow(2, 3, 1000, "c", nil)
	e.RunAll()
	s := f.Stats()
	if s.FlowsStarted != 3 || s.FlowsFinished != 3 {
		t.Fatalf("flow counts %d/%d, want 3/3", s.FlowsStarted, s.FlowsFinished)
	}
	if s.PeakConcurrentFlows != 3 {
		t.Fatalf("peak flows %d, want 3", s.PeakConcurrentFlows)
	}
	if s.Recomputes == 0 || s.Waterfills == 0 || s.WaterfillRounds < s.Waterfills {
		t.Fatalf("recompute counters not advancing: %+v", s)
	}
	if hr := s.DirtyHitRate(); hr < 0 || hr > 1 {
		t.Fatalf("dirty hit rate %v out of [0,1]", hr)
	}
	cs := s.Counters()
	if v, ok := cs.Get("flows_started"); !ok || v != 3 {
		t.Fatalf("counter flows_started = %v/%v, want 3", v, ok)
	}
	if _, ok := cs.Get("dirty_hit_rate"); !ok {
		t.Fatal("dirty_hit_rate counter missing")
	}
}
