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
	flows, ringRuns, copies int
	reused                  int // flows and copies seen before
}

type reuseRun struct {
	events     []reuseEvent
	stats      FabricStats
	busy       []simclock.Duration
	copierBusy simclock.Duration
	end        simclock.Time
	tally      reuseTally
	inFlight   int
}

// runReuseWorkload drives a seeded random mix of flow starts (zero-byte
// ones included), ring runs and copy runs. With release set, every callback
// releases its flow or copy; otherwise the workload's own handles are
// never recycled (ring runs recycle theirs in both modes). Nothing the
// simulation computes may depend on which.
func runReuseWorkload(seed int64, release bool) reuseRun {
	const n = 8
	rng := rand.New(rand.NewSource(seed))
	e := simclock.NewEngine()
	f := MustNewFabric(e, n, Config{EgressBytesPerSec: 1000, Alpha: 0.05})
	c := MustNewCopier(e, 2000)
	var run reuseRun
	seen := map[any]bool{}
	note := func(h any) {
		if seen[h] {
			run.tally.reused++
		}
		seen[h] = true
	}

	onFlow := func(fl *Flow) {
		run.events = append(run.events, reuseEvent{fl.Label, fl.State(), e.Now(), fl.Remaining()})
		if release {
			fl.Release()
		}
	}
	onCopy := func(cp *Copy) {
		note(cp)
		run.events = append(run.events, reuseEvent{cp.Label, cp.State(), e.Now(), cp.Bytes})
		if release {
			cp.Release()
		}
	}
	onRing := func(r *RingRun) {
		run.events = append(run.events, reuseEvent{"ring", FlowDone, e.Now(), r.Elapsed().Seconds()})
	}

	at := simclock.Time(0)
	for k := 0; k < 600; k++ {
		at = at.Add(simclock.Duration(rng.ExpFloat64() * 0.02))
		op, a, b, r := rng.Intn(14), rng.Intn(n), rng.Intn(n-1), rng.Int()
		bytes := float64(rng.Intn(4)) * float64(rng.Intn(800))
		label := fmt.Sprintf("op%d", k)
		e.At(at, func() {
			switch {
			case op < 10:
				note(f.StartFlow(a, (a+1+b)%n, bytes, label, onFlow))
				run.tally.flows++
			case op < 12:
				parts := rand.New(rand.NewSource(int64(r))).Perm(n)[:2+b%4]
				kind := AllGather
				if r%2 == 1 {
					kind = AllReduce
				}
				if _, err := StartRingRun(f, kind, parts, 200*float64(len(parts)), onRing); err != nil {
					panic(err)
				}
				run.tally.ringRuns++
			default:
				piece := bytes
				if r%2 == 1 {
					piece = float64(1 + r%300)
				}
				c.Submit(bytes, piece, label, onCopy)
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
	run.inFlight = f.ActiveFlows() + int(run.stats.FlowsStarted-run.stats.FlowsFinished)
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
		if kept.inFlight != 0 || released.inFlight != 0 {
			t.Fatalf("seed %d: flows left in flight (%d / %d)", seed, kept.inFlight, released.inFlight)
		}
		if k, r := kept.tally, released.tally; k.flows != r.flows || k.ringRuns != r.ringRuns || k.copies != r.copies {
			t.Fatalf("seed %d: workload tallies differ: %+v vs %+v", seed, k, r)
		}
		r := released.tally
		total.flows += r.flows
		total.ringRuns += r.ringRuns
		total.copies += r.copies
		total.reused += r.reused
	}
	t.Logf("exercised %+v", total)
	if total.flows == 0 || total.ringRuns == 0 || total.copies == 0 || total.reused == 0 {
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
	var done []*Copy
	keep := func(cp *Copy) { done = append(done, cp) }
	c.Submit(100, 100, "a", keep)
	mustPanic(t, "Release of an in-flight copy", c.cur.Release)
	e.RunAll()
	first := done[0]
	first.Release()
	mustPanic(t, "second Release", first.Release)
	c.Submit(300, 300, "c", keep)
	if c.cur != first || first.Label != "c" || first.Bytes != 300 || first.State() != FlowActive {
		t.Fatalf("the next piece did not reuse the released copy: %+v", c.cur)
	}
	e.RunAll()
	if e.Now() != 4 || len(done) != 2 || done[1] != first || first.State() != FlowDone {
		t.Fatalf("reused copy ended %v at %v, want done at 4", first.State(), e.Now())
	}
}
