// The steady-state allocation gate runs without the race detector: -race
// instruments allocations and would skew AllocsPerRun.
//go:build !race

package netsim

import (
	"testing"

	"gemini/internal/simclock"
)

// TestSteadyStateFabricEventsDoNotAllocate pins the engine's core
// guarantee: once a fabric's scratch is warm, rate recomputation — settle,
// component collection, waterfill, ETA-heap maintenance, and event
// rearming — allocates nothing. A flow's own lifecycle is gated below.
func TestSteadyStateFabricEventsDoNotAllocate(t *testing.T) {
	const n = 32
	e := simclock.NewEngine()
	f := MustNewFabric(e, n, Config{EgressBytesPerSec: 1e9})
	for i := 0; i < n; i++ {
		f.StartFlow(i, (i+1)%n, 1e15, "bg", nil)
	}
	e.Run(1)
	// Each op starts a warm, released flow through node 1 and runs it to
	// completion. Its start and its finish each dirty node 1, re-collect
	// its component (the whole ring), re-waterfill every flow in it, fix
	// their heap ETAs, and rearm both persistent events — the full
	// steady-state event path.
	release := func(fl *Flow) { fl.Release() }
	op := func() {
		f.StartFlow(1, 1+n/2, 1e6, "probe", release)
		e.Run(e.Now().Add(1))
	}
	op()
	before := f.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, op)
	if allocs != 0 {
		t.Fatalf("steady-state fabric events allocate %v times/op, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call on top of runs. Per op: one
	// recompute at the start (n ring flows + the probe) and one at the
	// finish (the n ring flows), each over the whole component.
	after := f.Stats()
	ops := uint64(runs + 1)
	if got := after.FlowsFinished - before.FlowsFinished; got != ops {
		t.Fatalf("%d probe flows finished, want %d", got, ops)
	}
	if got := after.Recomputes - before.Recomputes; got != 2*ops {
		t.Fatalf("%d recomputes, want %d", got, 2*ops)
	}
	if got := after.Waterfills - before.Waterfills; got != 2*ops {
		t.Fatalf("%d waterfills, want %d", got, 2*ops)
	}
	recomputed := after.FlowsRecomputed - before.FlowsRecomputed
	active := after.ActiveFlowSum - before.ActiveFlowSum
	if recomputed != (2*n+1)*ops || active != recomputed {
		t.Fatalf("recomputes touched %d of %d active flows, want all %d", recomputed, active, (2*n+1)*ops)
	}
}

// TestFlowLifecycleAllocsZero pins flow and copy recycling: once a
// fabric and a copier hold released objects, StartFlow → complete →
// Release and Submit → complete → Release reuse the objects and their
// events, so a whole lifecycle allocates nothing, a run of pieces
// included.
func TestFlowLifecycleAllocsZero(t *testing.T) {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 4, Config{EgressBytesPerSec: 1e9, Alpha: 1e-6})
	c := MustNewCopier(e, 1e9)
	releaseFlow := func(fl *Flow) { fl.Release() }
	releaseCopy := func(cp *Copy) { cp.Release() }
	cycle := func() {
		f.StartFlow(0, 1, 1e6, "flow", releaseFlow)
		f.StartFlow(2, 1, 1e6, "flow", releaseFlow)
		c.Submit(1e6, 1e6, "copy", releaseCopy)
		c.Submit(3e6, 1e6, "run", releaseCopy)
		e.RunAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm flow and copy lifecycle allocates %v times/op, want 0", allocs)
	}
	if got := f.Stats().FlowsFinished; got != 2*102 {
		t.Fatalf("%d flows finished, want %d", got, 2*102)
	}
}

// TestSplitFlowBatchesAllocZero: flow starts with other events sequenced
// between them open one batch each, and every fired batch hands its
// engine event back to the fabric, so a warm cycle of split batches
// allocates nothing either.
func TestSplitFlowBatchesAllocZero(t *testing.T) {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 4, Config{EgressBytesPerSec: 1e9, Alpha: 1e-6})
	release := func(fl *Flow) { fl.Release() }
	between := e.At(0, func() {})
	cycle := func() {
		for src := range 3 {
			f.StartFlow(src, 3, 1e6, "flow", release)
			e.Rearm(between, e.Now())
		}
		e.RunAll()
	}
	cycle()
	if got := len(f.batchEvs); got != 3 {
		t.Fatalf("%d batch events returned after three split starts, want 3", got)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm cycle of split flow batches allocates %v times/op, want 0", allocs)
	}
}
