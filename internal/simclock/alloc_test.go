// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package simclock

import "testing"

// A running ticker rearms its one event, so its firings allocate nothing.
func TestTickerFiringAllocsZero(t *testing.T) {
	e := NewEngine()
	count := 0
	NewTicker(e, 5, func(Time) { count++ })
	e.Run(50)
	if allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now().Add(50)) }); allocs != 0 {
		t.Fatalf("%v allocations per 10 ticker firings, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 100 measured ones.
	if want := 10 + 101*10; count != want {
		t.Fatalf("ticker fired %d times, want %d", count, want)
	}
}
