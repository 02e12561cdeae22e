package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"gemini/internal/simclock"
)

// reuseEvent is one observed completion callback.
type reuseEvent struct {
	label string
	state FlowState
	at    simclock.Time
	rem   float64 // Remaining() for flows and copies, Elapsed() for ring runs
}

// reuseTally counts what a workload exercised, so the comparison below
// cannot pass vacuously.
type reuseTally struct {
	cancelStarting, cancelActive int
	asyncFailed                  int // failed at their own start instant
	ringRuns, copies             int
	reused                       int // StartFlow/Submit results seen before
}

type reuseRun struct {
	events       []reuseEvent
	stats        FabricStats
	busy         []simclock.Duration
	copierBusy   simclock.Duration
	end          simclock.Time
	tally        reuseTally
	finalPending int
}

// runReuseWorkload drives a seeded random mix of flow starts, cancels in
// the startup window and mid-flight, node failures and recoveries,
// partitions, zero-bandwidth stragglers, ring runs and copies. With
// release set, every callback releases its flow or copy; otherwise the
// workload's own handles are never recycled (ring runs recycle theirs
// in both modes). Nothing the simulation computes may depend on which.
func runReuseWorkload(seed int64, release bool) reuseRun {
	const n = 8
	rng := rand.New(rand.NewSource(seed))
	e := simclock.NewEngine()
	f := MustNewFabric(e, n, Config{EgressBytesPerSec: 1000, Alpha: 0.05})
	c := MustNewCopier(e, 2000)
	var run reuseRun
	var live []*Flow
	seen := map[any]bool{}

	onFlow := func(fl *Flow) {
		run.events = append(run.events, reuseEvent{fl.Label, fl.State(), e.Now(), fl.Remaining()})
		if fl.State() == FlowFailed && fl.FinishedAt() == fl.StartedAt() {
			run.tally.asyncFailed++
		}
		for i, x := range live {
			if x == fl {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		if release {
			fl.Release()
		}
	}
	onCopy := func(cp *Copy) {
		run.events = append(run.events, reuseEvent{cp.Label, cp.State(), e.Now(), cp.Bytes})
		if release {
			cp.Release()
		}
	}
	onRing := func(r *RingRun) {
		st := FlowDone
		if r.Failed() {
			st = FlowFailed
		}
		run.events = append(run.events, reuseEvent{"ring", st, e.Now(), r.Elapsed().Seconds()})
	}
	note := func(h any) {
		if seen[h] {
			run.tally.reused++
		}
		seen[h] = true
	}

	at := simclock.Time(0)
	for k := 0; k < 600; k++ {
		at = at.Add(simclock.Duration(rng.ExpFloat64() * 0.02))
		op, a, b, r := rng.Intn(17), rng.Intn(n), rng.Intn(n-1), rng.Int()
		bytes := float64(rng.Intn(4)) * float64(rng.Intn(800))
		hold := simclock.Duration(0.05 + rng.Float64()*0.5)
		label := fmt.Sprintf("op%d", k)
		e.At(at, func() {
			switch {
			case op < 7:
				dst := (a + 1 + b) % n
				fl := f.StartFlow(a, dst, bytes, label, onFlow)
				note(fl)
				live = append(live, fl)
			case op < 10:
				if len(live) == 0 {
					return
				}
				fl := live[r%len(live)]
				if fl.State() == FlowStarting {
					run.tally.cancelStarting++
				} else {
					run.tally.cancelActive++
				}
				fl.Cancel()
			case op == 10:
				f.SetNodeUp(a, false)
				e.At(e.Now().Add(hold), func() { f.SetNodeUp(a, true) })
			case op == 11:
				perm := rand.New(rand.NewSource(int64(r))).Perm(n)
				f.SetPartition(perm[:1+b%4], perm[1+b%4:])
				e.At(e.Now().Add(hold), f.ClearPartition)
			case op == 12:
				f.SetNodeFactor(a, 0)
				e.At(e.Now().Add(hold), func() { f.SetNodeFactor(a, 1) })
			case op == 13:
				parts := rand.New(rand.NewSource(int64(r))).Perm(n)[:2+b%4]
				kind := AllGather
				if r%2 == 1 {
					kind = AllReduce
				}
				if _, err := StartRingRun(f, kind, parts, 200*float64(len(parts)), onRing); err != nil {
					panic(err)
				}
				run.tally.ringRuns++
			case op == 14:
				// Start, cancel and start again in one instant. With
				// Release the second start reuses the first flow while
				// its zero-delay failure event (for a down or cut-off
				// endpoint) may still be queued.
				fl := f.StartFlow(a, (a+1+b)%n, bytes, label, onFlow)
				live = append(live, fl)
				run.tally.cancelStarting++
				fl.Cancel()
				fl = f.StartFlow(a, (a+1+(b+1)%(n-1))%n, bytes, label+"'", onFlow)
				note(fl)
				live = append(live, fl)
			default:
				note(c.Submit(bytes, label, onCopy))
				run.tally.copies++
			}
		})
	}
	e.RunAll()
	run.stats = f.Stats()
	for i := 0; i < n; i++ {
		run.busy = append(run.busy, f.BusyTime(i))
	}
	run.copierBusy = c.BusyTime()
	run.end = e.Now()
	run.finalPending = f.ActiveFlows() + len(live)
	return run
}

func TestFlowReuseIsUnobservable(t *testing.T) {
	var total reuseTally
	for seed := int64(1); seed <= 6; seed++ {
		kept := runReuseWorkload(seed, false)
		released := runReuseWorkload(seed, true)
		if len(kept.events) != len(released.events) {
			t.Fatalf("seed %d: %d callbacks without Release, %d with", seed, len(kept.events), len(released.events))
		}
		for i := range kept.events {
			if kept.events[i] != released.events[i] {
				t.Fatalf("seed %d: callback %d = %+v with Release, %+v without",
					seed, i, released.events[i], kept.events[i])
			}
		}
		if kept.stats != released.stats {
			t.Fatalf("seed %d: stats %+v with Release, %+v without", seed, released.stats, kept.stats)
		}
		if fmt.Sprint(kept.busy) != fmt.Sprint(released.busy) || kept.copierBusy != released.copierBusy || kept.end != released.end {
			t.Fatalf("seed %d: busy times or end differ", seed)
		}
		if kept.finalPending != 0 || released.finalPending != 0 {
			t.Fatalf("seed %d: flows left in flight (%d / %d)", seed, kept.finalPending, released.finalPending)
		}
		if k, r := kept.tally, released.tally; k.cancelStarting != r.cancelStarting || k.cancelActive != r.cancelActive ||
			k.asyncFailed != r.asyncFailed || k.ringRuns != r.ringRuns || k.copies != r.copies {
			t.Fatalf("seed %d: workload tallies differ: %+v vs %+v", seed, k, r)
		}
		r := released.tally
		total.cancelStarting += r.cancelStarting
		total.cancelActive += r.cancelActive
		total.asyncFailed += r.asyncFailed
		total.ringRuns += r.ringRuns
		total.copies += r.copies
		total.reused += r.reused
	}
	t.Logf("exercised %+v", total)
	if total.cancelStarting == 0 || total.cancelActive == 0 || total.asyncFailed == 0 ||
		total.ringRuns == 0 || total.copies == 0 || total.reused == 0 {
		t.Fatalf("workload missed a case: %+v", total)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestFlowReleaseContract(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100, Alpha: 1})
	fl := f.StartFlow(0, 1, 100, "a", nil)
	mustPanic(t, "Release of a starting flow", fl.Release)
	e.Run(1.5)
	if fl.State() != FlowActive {
		t.Fatalf("state %v, want active", fl.State())
	}
	mustPanic(t, "Release of an active flow", fl.Release)
	e.RunAll()
	fl.Release()
	mustPanic(t, "second Release", fl.Release)
	again := f.StartFlow(0, 1, 50, "b", nil)
	if again != fl {
		t.Fatal("StartFlow did not reuse the released flow")
	}
	if again.State() != FlowStarting || again.Label != "b" || again.Bytes() != 50 || again.FinishedAt() != 0 {
		t.Fatalf("reused flow not reset: state %v label %q bytes %v finished %v",
			again.State(), again.Label, again.Bytes(), again.FinishedAt())
	}
	e.RunAll()
	if again.State() != FlowDone || again.FinishedAt() != 2+1+0.5 {
		t.Fatalf("reused flow ended %v at %v, want done at 3.5", again.State(), again.FinishedAt())
	}
}

func TestCopyReleaseContract(t *testing.T) {
	e := simclock.NewEngine()
	c := MustNewCopier(e, 100)
	first := c.Submit(100, "a", nil)
	second := c.Submit(100, "b", nil)
	mustPanic(t, "Release of an in-flight copy", first.Release)
	mustPanic(t, "Release of a queued copy", second.Release)
	e.RunAll()
	first.Release()
	mustPanic(t, "second Release", first.Release)
	again := c.Submit(300, "c", nil)
	if again != first || again.Label != "c" || again.Bytes != 300 || again.State() != FlowActive {
		t.Fatalf("Submit did not reuse the released copy: %+v", again)
	}
	e.RunAll()
	if e.Now() != 5 || again.State() != FlowDone {
		t.Fatalf("reused copy ended %v at %v, want done at 5", again.State(), e.Now())
	}
}

// A flow started toward a down node fails on a zero-delay event. If its
// owner cancels, releases and restarts it before that event fires, the
// stale event must leave the new flow alone.
func TestStaleAsyncFailureSkipsRecycledFlow(t *testing.T) {
	e, f := newTestFabric(t, 3, Config{EgressBytesPerSec: 100, Alpha: 0.5})
	f.SetNodeUp(1, false)
	doomed := f.StartFlow(0, 1, 100, "doomed", nil)
	doomed.Cancel()
	doomed.Release()
	var got FlowState = -1
	fresh := f.StartFlow(0, 2, 100, "fresh", func(fl *Flow) { got = fl.State() })
	if fresh != doomed {
		t.Fatal("StartFlow did not reuse the released flow")
	}
	e.RunAll()
	if got != FlowDone || fresh.FinishedAt() != 1.5 {
		t.Fatalf("recycled flow ended %v at %v, want done at 1.5", got, fresh.FinishedAt())
	}
}
