package simclock

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	times := []Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if n := e.RunAll(); n != len(times) {
		t.Fatalf("fired %d events, want %d", n, len(times))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending scheduling order", got)
		}
	}
}

func TestEngineTieBreaksByPriority(t *testing.T) {
	e := NewEngine()
	var got []int
	e.AtPriority(1, 5, func() { got = append(got, 5) })
	e.AtPriority(1, -1, func() { got = append(got, -1) })
	e.AtPriority(1, 2, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{-1, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order %v, want %v", got, want)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

// A NaN time compares false against everything, so a plain `at < now`
// guard lets it through; the event would fire last and leave the clock
// at NaN. Every way of scheduling must refuse it and say why.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	cases := []struct {
		name string
		call func(e *Engine)
	}{
		{"At", func(e *Engine) { e.At(nan, func() {}) }},
		{"AtPriority", func(e *Engine) { e.AtPriority(nan, 3, func() {}) }},
		{"After", func(e *Engine) { e.After(Duration(math.NaN()), func() {}) }},
		{"Rearm", func(e *Engine) { e.Rearm(e.At(1, func() {}), nan) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.Run(0.5)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "NaN") {
					t.Fatalf("panic %q, want one naming the NaN time", msg)
				}
				if e.Now() != 0.5 {
					t.Fatalf("clock at %v after the rejected call, want 0.5", e.Now())
				}
			}()
			tc.call(e)
		})
	}
}

func TestNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event function did not panic")
		}
	}()
	e.At(1, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(1, func() { fired = true })
	if !id.Pending() {
		t.Fatal("event should be pending before run")
	}
	if !id.Cancel() {
		t.Fatal("cancel of pending event returned false")
	}
	if id.Cancel() {
		t.Fatal("second cancel returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if id.Pending() {
		t.Fatal("canceled event still pending")
	}
}

func TestRunBoundedByHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	n := e.Run(3)
	if n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	if e.Now() != 3 {
		t.Fatalf("clock at %v, want 3", e.Now())
	}
	// Events exactly at the horizon fire; later ones wait.
	n = e.Run(4.5)
	if n != 1 || fired[len(fired)-1] != 4 {
		t.Fatalf("second run fired %d ending %v, want 1 ending 4", n, fired)
	}
	if e.Now() != 4.5 {
		t.Fatalf("clock advanced to %v, want horizon 4.5", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	if n := e.Run(Forever); n != 4 {
		t.Fatalf("run fired %d, want 4", n)
	}
	if e.Len() != 6 {
		t.Fatalf("%d events left, want 6", e.Len())
	}
}

func TestStepFiresOneEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first step fired %d, want 1", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second step fired %d, want 2", count)
	}
	if e.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestPeekTimeSkipsCanceled(t *testing.T) {
	e := NewEngine()
	id := e.At(1, func() {})
	e.At(2, func() {})
	id.Cancel()
	if got := e.PeekTime(); got != 2 {
		t.Fatalf("PeekTime = %v, want 2", got)
	}
	e2 := NewEngine()
	if got := e2.PeekTime(); got != Forever {
		t.Fatalf("PeekTime on empty = %v, want Forever", got)
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	e := NewEngine()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 100 {
			e.After(1, grow)
		}
	}
	e.At(0, grow)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("chained depth %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("clock at %v, want 99", e.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var fires []Time
	tk := NewTicker(e, 10, func(at Time) {
		fires = append(fires, at)
		if len(fires) == 5 {
			// stop from inside the callback
		}
	})
	e.Run(45)
	tk.Stop()
	e.RunAll()
	want := []Time{10, 20, 30, 40}
	if len(fires) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(fires), fires, len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("ticker fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 1, func(Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunAll()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
	if !tk.Stopped() {
		t.Fatal("ticker not stopped")
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period did not panic")
		}
	}()
	NewTicker(e, 0, func(Time) {})
}

// Property: for any random batch of event times, the engine fires them in
// nondecreasing time order and ends with the clock at the maximum.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		times := make([]Time, count)
		var fired []Time
		for i := range times {
			times[i] = Time(rng.Float64() * 1000)
			at := times[i]
			e.At(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		if len(fired) != count {
			return false
		}
		sorted := append([]Time(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			// Ties fire in scheduling order but carry equal values, so a
			// positional compare against the sorted times is exact.
			if fired[i] != sorted[i] {
				return false
			}
			if i > 0 && fired[i-1] > fired[i] {
				return false
			}
		}
		return e.Now() == sorted[count-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{7200, "2.00h"},
		{90, "1.50m"},
		{1.5, "1.500s"},
		{0.25, "250.000ms"},
		{5e-6, "5.000us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%v).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
	if Forever.String() != "forever" {
		t.Errorf("Forever.String() = %q", Forever.String())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(10).Add(5)
	if tm != 15 {
		t.Fatalf("Add = %v, want 15", tm)
	}
	if d := Time(15).Sub(10); d != 5 {
		t.Fatalf("Sub = %v, want 5", d)
	}
	if s := Duration(2.5).Seconds(); s != 2.5 {
		t.Fatalf("Seconds = %v, want 2.5", s)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run did not panic")
			}
		}()
		e.RunAll()
	})
	e.RunAll()
}

func TestRearmMovesPendingEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	id := e.At(5, func() { fired = append(fired, e.Now()) })
	e.Rearm(id, 2)
	e.RunAll()
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("rearmed event fired at %v, want [2]", fired)
	}
}

func TestRearmRevivesFiredAndCanceledEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	id := e.At(1, func() { count++ })
	e.RunAll()
	if count != 1 {
		t.Fatalf("event fired %d times, want 1", count)
	}
	// Revive the fired event.
	e.Rearm(id, 3)
	e.RunAll()
	if count != 2 || e.Now() != 3 {
		t.Fatalf("revived event: count %d at %v, want 2 at 3", count, e.Now())
	}
	// Revive a canceled event.
	id.Cancel()
	e.Rearm(id, 4)
	e.RunAll()
	if count != 3 || e.Now() != 4 {
		t.Fatalf("revived canceled event: count %d at %v, want 3 at 4", count, e.Now())
	}
}

func TestRearmKeepsPriorityAndResequences(t *testing.T) {
	e := NewEngine()
	var order []string
	low := e.AtPriority(10, -5, func() { order = append(order, "low") })
	e.At(1, func() {
		// Move the priority −5 event to the same instant as a priority-0
		// event scheduled later: priority still wins the tie.
		e.At(2, func() { order = append(order, "plain") })
		e.Rearm(low, 2)
	})
	e.RunAll()
	if len(order) != 2 || order[0] != "low" || order[1] != "plain" {
		t.Fatalf("order %v, want [low plain]", order)
	}
}

func TestRearmSequencesAfterExistingTies(t *testing.T) {
	e := NewEngine()
	var order []string
	a := e.At(1, func() { order = append(order, "a") })
	e.RunAll()
	// Same instant, same priority: the freshly scheduled event keeps its
	// earlier sequence, the rearmed one fires after it.
	e.At(1, func() { order = append(order, "b") })
	e.Rearm(a, 1)
	e.RunAll()
	if len(order) != 3 || order[1] != "b" || order[2] != "a" {
		t.Fatalf("order %v, want [a b a]", order)
	}
}

func TestRearmIntoPastPanics(t *testing.T) {
	e := NewEngine()
	id := e.At(1, func() {})
	e.At(5, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("rearming into the past did not panic")
		}
	}()
	e.Rearm(id, 2)
}

func TestRearmZeroEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("rearming a zero EventID did not panic")
		}
	}()
	e.Rearm(EventID{}, 1)
}
