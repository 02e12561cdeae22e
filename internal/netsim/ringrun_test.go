package netsim

import (
	"math"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

func ringFixture(t *testing.T, n int, alpha simclock.Duration) (*simclock.Engine, *Fabric, []int) {
	t.Helper()
	e := simclock.NewEngine()
	f := MustNewFabric(e, n, Config{EgressBytesPerSec: 1000, Alpha: alpha})
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i
	}
	return e, f, parts
}

// The headline validation: the step-by-step ring execution on the fluid
// fabric reproduces the closed-form CollectiveTime exactly when the
// network is otherwise idle.
func TestRingRunMatchesAnalyticModel(t *testing.T) {
	for _, c := range []struct {
		n     int
		kind  CollectiveKind
		bytes float64
		alpha simclock.Duration
	}{
		{4, AllGather, 4000, 0},
		{4, AllGather, 4000, 0.5},
		{8, ReduceScatter, 16000, 0.25},
		{4, AllReduce, 4000, 0.1},
		{2, AllGather, 1000, 0},
	} {
		e, f, parts := ringFixture(t, c.n, c.alpha)
		var run *RingRun
		var err error
		run, err = StartRingRun(f, c.kind, parts, c.bytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		want := CollectiveTime(c.kind, c.n, c.bytes, 1000, c.alpha)
		if got := run.Elapsed(); math.Abs((got - want).Seconds()) > 1e-9 {
			t.Errorf("%v n=%d α=%v: ring run %v, analytic %v", c.kind, c.n, c.alpha, got, want)
		}
	}
}

func TestRingRunSingleParticipantFree(t *testing.T) {
	e, f, _ := ringFixture(t, 2, 0)
	done := false
	if _, err := StartRingRun(f, AllGather, []int{0}, 1000, func(r *RingRun) {
		done = true
		if r.Elapsed() != 0 {
			t.Errorf("single-participant collective took %v", r.Elapsed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !done {
		t.Fatal("callback never fired")
	}
}

func TestRingRunContentionSlowsItDown(t *testing.T) {
	// A competing bulk flow on one link steals bandwidth; the collective
	// must take longer than the analytic uncontended time.
	e, f, parts := ringFixture(t, 4, 0)
	f.StartFlow(0, 1, 50_000, "bulk", nil)
	var run *RingRun
	var err error
	run, err = StartRingRun(f, AllGather, parts, 4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	uncontended := CollectiveTime(AllGather, 4, 4000, 1000, 0)
	if run.Elapsed() <= uncontended {
		t.Fatalf("contended run %v not slower than uncontended %v", run.Elapsed(), uncontended)
	}
}

func TestRingRunValidation(t *testing.T) {
	_, f, _ := ringFixture(t, 4, 0)
	if _, err := StartRingRun(f, AllGather, nil, 100, nil); err == nil {
		t.Error("empty participants accepted")
	}
	if _, err := StartRingRun(f, AllGather, []int{0, 0}, 100, nil); err == nil {
		t.Error("duplicate participants accepted")
	}
	if _, err := StartRingRun(f, AllGather, []int{0, 1}, -1, nil); err == nil {
		t.Error("negative payload accepted")
	}
	// An out-of-range node is an error before any flow of the first
	// round starts, and the error names the node.
	if _, err := StartRingRun(f, AllGather, []int{0, 1, 7}, 100, nil); err == nil || !strings.Contains(err.Error(), "node 7") {
		t.Errorf("out-of-range participant: err = %v, want one naming node 7", err)
	}
	if _, err := StartRingRun(f, AllGather, []int{-1, 0}, 100, nil); err == nil || !strings.Contains(err.Error(), "node -1") {
		t.Errorf("negative participant: err = %v, want one naming node -1", err)
	}
	if got := f.Stats().FlowsStarted; got != 0 {
		t.Errorf("rejected ring runs started %d flows", got)
	}
}

func TestRingRunZeroBytes(t *testing.T) {
	e, f, parts := ringFixture(t, 4, 0)
	done := false
	if _, err := StartRingRun(f, AllGather, parts, 0, func(*RingRun) { done = true }); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !done {
		t.Fatal("zero-byte collective never completed")
	}
}
