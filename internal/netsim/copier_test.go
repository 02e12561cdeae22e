package netsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gemini/internal/simclock"
	"gemini/internal/trace"
)

func TestCopierServesFIFO(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	var order []string
	var times []simclock.Time
	c.Submit(1000, 1000, "a", func(cp *Copy) { order = append(order, cp.Label); times = append(times, e.Now()) })
	c.Submit(500, 500, "b", func(cp *Copy) { order = append(order, cp.Label); times = append(times, e.Now()) })
	if c.QueueLen() != 2 {
		t.Fatalf("queue length %d, want 2", c.QueueLen())
	}
	e.RunAll()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("completion order %v, want [a b]", order)
	}
	if math.Abs(float64(times[0])-10) > 1e-9 || math.Abs(float64(times[1])-15) > 1e-9 {
		t.Fatalf("completion times %v, want [10 15]", times)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("queue length %d after drain, want 0", c.QueueLen())
	}
}

func TestCopierBusyTime(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	c.Submit(1000, 1000, "a", nil)
	e.At(50, func() { c.Submit(2000, 2000, "b", nil) })
	e.RunAll()
	if bt := c.BusyTime(); math.Abs(bt.Seconds()-30) > 1e-9 {
		t.Fatalf("busy time %v, want 30s", bt)
	}
	if e.Now() != 70 {
		t.Fatalf("clock %v, want 70", e.Now())
	}
}

func TestCopierCopyTime(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 50*gbps)
	want := 1e9 / (50 * gbps)
	if got := c.CopyTime(1e9).Seconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CopyTime = %v, want %v", got, want)
	}
	if c.Bandwidth() != 50*gbps {
		t.Fatalf("Bandwidth = %v", c.Bandwidth())
	}
}

// A queued piece has no *Copy yet: it takes one when it starts, active
// until its callback sees it done.
func TestCopierStateTransitions(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	var done []*Copy
	onDone := func(cp *Copy) {
		if cp.State() != FlowDone {
			t.Fatalf("copy %q reached its callback %v, want done", cp.Label, cp.State())
		}
		done = append(done, cp)
	}
	c.Submit(1000, 1000, "a", onDone)
	c.Submit(1000, 1000, "b", onDone)
	if c.cur == nil || c.cur.Label != "a" || c.cur.State() != FlowActive {
		t.Fatalf("in-flight copy %+v, want a active", c.cur)
	}
	e.RunAll()
	if len(done) != 2 || done[0] == done[1] {
		t.Fatalf("callbacks saw %v, want two distinct unreleased copies", done)
	}
}

// copierObs is everything a copier exposes over one workload.
type copierObs struct {
	events    []string // "label bytes time" per callback
	queueLens []int    // QueueLen at each probe
	busy      []simclock.Duration
	spans     []trace.Span
	fired     int
	seq       uint64
}

// observeCopier runs submit's workload with a probe of QueueLen and
// BusyTime after every submission and at each probe time.
func observeCopier(submit func(e *simclock.Engine, c *Copier, onDone func(*Copy), probe func())) copierObs {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	tr := trace.NewTracer(e.Now)
	tk := tr.Track("machine-0", "copier")
	c.SetTrack(tk)
	var obs copierObs
	probe := func() {
		obs.queueLens = append(obs.queueLens, c.QueueLen())
		obs.busy = append(obs.busy, c.BusyTime())
	}
	onDone := func(cp *Copy) {
		obs.events = append(obs.events, fmt.Sprintf("%s %v %v", cp.Label, cp.Bytes, float64(e.Now())))
		probe()
		cp.Release()
	}
	submit(e, c, onDone, probe)
	obs.fired = e.RunAll()
	probe()
	obs.spans = tk.Spans()
	obs.seq = e.NextSeq()
	return obs
}

// A run must be indistinguishable from its pieces submitted one by one:
// same callbacks, queue lengths, busy times, trace spans and engine
// events. The workload covers a remainder piece (1000 bytes in 300-byte
// pieces), a zero-byte run, and a copy submitted mid-run, which queues
// behind every piece of the runs before it.
func TestCopierRunEqualsItsPieces(t *testing.T) {
	probes := []simclock.Time{0, 2, 3, 4.5, 9, 10, 11}
	armProbes := func(e *simclock.Engine, probe func()) {
		for _, at := range probes {
			e.At(at, probe)
		}
	}
	asRuns := observeCopier(func(e *simclock.Engine, c *Copier, onDone func(*Copy), probe func()) {
		armProbes(e, probe)
		c.Submit(1000, 300, "a", onDone)
		probe()
		c.Submit(0, 50, "z", onDone)
		probe()
		e.At(5, func() { c.Submit(200, 200, "b", onDone); probe() })
	})
	asPieces := observeCopier(func(e *simclock.Engine, c *Copier, onDone func(*Copy), probe func()) {
		armProbes(e, probe)
		for _, sz := range []float64{300, 300, 300, 100} {
			c.Submit(sz, sz, "a", onDone)
		}
		probe()
		c.Submit(0, 0, "z", onDone)
		probe()
		e.At(5, func() { c.Submit(200, 200, "b", onDone); probe() })
	})
	want := []string{"a 300 3", "a 300 6", "a 300 9", "a 100 10", "z 0 10", "b 200 12"}
	if fmt.Sprint(asRuns.events) != fmt.Sprint(want) {
		t.Fatalf("run callbacks %q, want %q", asRuns.events, want)
	}
	if !reflect.DeepEqual(asRuns, asPieces) {
		t.Fatalf("a run differs from its pieces:\n runs:   %+v\n pieces: %+v", asRuns, asPieces)
	}
	// Probes in time order: after each t=0 submission, at t=0, 2 and 3
	// (before the first piece's callback), in that callback, at 4.5,
	// after b's submission at 5, and so on; at t=10 the remainder piece
	// is in flight with z and b queued behind it.
	wantLens := []int{4, 5, 5, 5, 5, 4, 4, 5, 4, 4, 3, 3, 2, 1, 1, 0, 0}
	if fmt.Sprint(asRuns.queueLens) != fmt.Sprint(wantLens) {
		t.Fatalf("queue lengths %v, want %v", asRuns.queueLens, wantLens)
	}
	if len(asRuns.spans) != len(want) {
		t.Fatalf("%d trace spans, want one per copy (%d)", len(asRuns.spans), len(want))
	}
}

func TestPieces(t *testing.T) {
	for _, tc := range []struct {
		bytes, piece float64
		want         int
	}{{1000, 300, 4}, {900, 300, 3}, {0, 300, 1}, {0, 0, 1}, {5, 5, 1}, {5, math.Inf(1), 1}, {0.3, 0.1, 3}} {
		if got := Pieces(tc.bytes, tc.piece); got != tc.want {
			t.Errorf("Pieces(%v, %v) = %d, want %d", tc.bytes, tc.piece, got, tc.want)
		}
	}
}

func TestCopierRejectsBadConfig(t *testing.T) {
	e := simclock.NewEngine()
	if _, err := NewCopier(e, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewCopier(e, -1); err == nil {
		t.Error("negative bandwidth accepted")
	}
	c := MustNewCopier(e, 1)
	mustPanic(t, "negative copy size", func() { c.Submit(-5, 1, "bad", nil) })
	mustPanic(t, "zero piece size", func() { c.Submit(5, 0, "bad", nil) })
	mustPanic(t, "negative piece size", func() { c.Submit(5, -1, "bad", nil) })
	mustPanic(t, "a run of too many pieces", func() { c.Submit(1e12, 1, "bad", nil) })
}
