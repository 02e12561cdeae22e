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
	e := simclock.NewEngine()
	f := MustNewFabric(e, 32, Config{EgressBytesPerSec: 1e9})
	for i := 0; i < 32; i++ {
		f.StartFlow(i, (i+1)%32, 1e15, "bg", nil)
	}
	e.Run(1)
	// Each toggle dirties node 1, re-collects its component (the whole
	// ring), re-waterfills 32 flows, fixes their heap ETAs, and rearms
	// both persistent events — the full steady-state event path.
	toggle := func(factor float64) {
		f.SetNodeFactor(1, factor)
		e.Run(e.Now())
	}
	toggle(0.5)
	toggle(1)
	allocs := testing.AllocsPerRun(50, func() {
		toggle(0.5)
		toggle(1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state fabric events allocate %v times/op, want 0", allocs)
	}
}

// TestFlowLifecycleAllocsZero pins flow and copy recycling: once a
// fabric and a copier hold released objects, StartFlow → complete →
// Release and Submit → complete → Release reuse the objects and their
// events, so a whole lifecycle allocates nothing.
func TestFlowLifecycleAllocsZero(t *testing.T) {
	e := simclock.NewEngine()
	f := MustNewFabric(e, 4, Config{EgressBytesPerSec: 1e9, Alpha: 1e-6})
	c := MustNewCopier(e, 1e9)
	releaseFlow := func(fl *Flow) { fl.Release() }
	releaseCopy := func(cp *Copy) { cp.Release() }
	cycle := func() {
		f.StartFlow(0, 1, 1e6, "flow", releaseFlow)
		f.StartFlow(2, 1, 1e6, "flow", releaseFlow)
		c.Submit(1e6, "copy", releaseCopy)
		c.Submit(1e6, "copy", releaseCopy)
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
