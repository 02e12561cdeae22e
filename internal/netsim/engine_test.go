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

// TestFlowStartsKeepEngineOrder holds the batched α-window events to the
// per-flow contract: a flow turns active in an event at (start + α,
// priority 0) that is sequenced when StartFlow is called. User events
// armed between StartFlow calls — at a window's end instant on either
// side of priority 0, and at other times — must see exactly the flows
// whose per-flow event would have fired before theirs, through State(),
// ActiveFlows() and BusyTime().
func TestFlowStartsKeepEngineOrder(t *testing.T) {
	for _, alpha := range []simclock.Duration{0.5, 0} {
		t.Run(fmt.Sprintf("alpha=%v", float64(alpha)), func(t *testing.T) {
			checkFlowStartOrder(t, alpha)
		})
	}
}

func checkFlowStartOrder(t *testing.T, alpha simclock.Duration) {
	const n = 6
	e, f := newTestFabric(t, n, Config{EgressBytesPerSec: 1000, Alpha: alpha})
	// key is an event's place in the engine's (time, priority, seq)
	// order; ord counts the test's StartFlow and scheduling calls, which
	// a per-flow engine would sequence in the same order.
	type key struct {
		at   simclock.Time
		prio int
		ord  int
	}
	before := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.ord < b.ord
	}
	type started struct {
		fl  *Flow
		win key // the flow's per-flow α-window event
	}
	var flows []started
	ord := 0
	// No flow finishes during the test, so a node stays busy from its
	// first flow's activation on.
	start := func(src int) {
		ord++
		fl := f.StartFlow(src, (src+1)%n, 1e9, fmt.Sprintf("f%d", len(flows)), nil)
		flows = append(flows, started{fl, key{e.Now().Add(alpha), 0, ord}})
	}
	armed, fired := 0, 0
	observe := func(at simclock.Time, prio int, then func()) {
		ord++
		armed++
		k := key{at, prio, ord}
		e.AtPriority(at, prio, func() {
			fired++
			active := 0
			busySince := make([]simclock.Time, n)
			busy := make([]bool, n)
			for _, s := range flows {
				want := FlowStarting
				if before(s.win, k) {
					want = FlowActive
					active++
					for _, node := range []int{s.fl.Src, s.fl.Dst} {
						if !busy[node] || s.win.at < busySince[node] {
							busy[node], busySince[node] = true, s.win.at
						}
					}
				}
				if got := s.fl.State(); got != want {
					t.Errorf("event %+v: flow %s (window %+v) is %v, want %v", k, s.fl.Label, s.win, got, want)
				}
			}
			if got := f.ActiveFlows(); got != active {
				t.Errorf("event %+v: %d active flows, want %d", k, got, active)
			}
			for i := range n {
				var want simclock.Duration
				if busy[i] {
					want = e.Now().Sub(busySince[i])
				}
				if got := f.BusyTime(i); got != want {
					t.Errorf("event %+v: node %d busy %v, want %v", k, i, got, want)
				}
			}
			if then != nil {
				then()
			}
		})
	}
	w := simclock.Time(0).Add(alpha) // the first windows' end
	start(0)
	observe(w, 0, nil) // between two same-instant starts
	start(1)
	start(2)
	observe(w, -1, nil) // before every start at w
	observe(w, 1, nil)  // after every start at w
	observe(0.25, 0, func() {
		start(3)
		observe(simclock.Time(0.25).Add(alpha), 0, nil)
		start(4)
		start(5)
	})
	start(4)
	observe(w, 0, func() {
		// Starts in the instant other batches fire.
		start(2)
		observe(w.Add(alpha), 0, nil)
		start(3)
	})
	observe(2.8, 0, func() {
		// Priority 1 fires after the starts at 2.8 + α, yet is armed
		// before them and so leaves start(1) last in the sequence.
		observe(simclock.Time(2.8).Add(alpha), 1, nil)
		start(1)
	})
	e.Run(3)
	// The clock moved to 3 with nothing sequenced since the start at 2.8,
	// so only the start instant tells this flow's batch from that one.
	start(5)
	observe(simclock.Time(3).Add(alpha), 0, nil)
	observe(5, 0, nil)
	e.Run(5)
	if fired != armed {
		t.Fatalf("%d of %d observations fired", fired, armed)
	}
}

// TestSameInstantFlowsShareOneStartEvent: a ring round's flows start at
// one instant with nothing sequenced between them, so one engine event
// ends all their α windows.
func TestSameInstantFlowsShareOneStartEvent(t *testing.T) {
	const n = 16
	e, f := newTestFabric(t, n, Config{EgressBytesPerSec: 1000, Alpha: 0.5})
	for i := range n {
		f.StartFlow(i, (i+1)%n, 1000, "ring", nil)
	}
	if got := e.Run(0.5); got != 2 {
		t.Fatalf("%d same-instant starts fired %d events through their window, want 2 (one start batch, one recompute)", n, got)
	}
	if got := f.ActiveFlows(); got != n {
		t.Fatalf("%d active flows, want %d", got, n)
	}
}
