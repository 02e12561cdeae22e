package agent

import (
	"fmt"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/simclock"
)

// healthyRun runs a failure-free cluster of the given size for horizon
// and returns the events fired and the iterations completed.
func healthyRun(tb testing.TB, machines int, horizon simclock.Duration) (fired int, iterations int64) {
	f := newFixture(tb, machines, 2, cloud.DefaultConfig())
	f.sys.Start()
	fired = f.engine.Run(simclock.Time(horizon))
	if f.sys.Recoveries() != 0 {
		tb.Fatalf("%d machines: %d recoveries in a healthy run", machines, f.sys.Recoveries())
	}
	return fired, f.sys.Iteration()
}

// A healthy control plane costs its root polls and nothing else: the
// start batch holds its leases, so its heartbeat ticks are silent, and
// the events beyond the iterations are one root poll per
// CheckInterval, whatever the machine count. Per-worker tickers made
// the event count grow with the machines (about 74 k at 16, 557 k at
// 128 in 6 hours); one ticker per start batch still fired a tick per
// heartbeat interval.
func TestHeartbeatEventsScaleWithCohorts(t *testing.T) {
	const horizon = 6 * simclock.Hour
	opts := DefaultOptions()
	bound := int(horizon/opts.CheckInterval) + 16
	var overhead [2]int
	for i, machines := range []int{16, 128} {
		fired, iters := healthyRun(t, machines, horizon)
		overhead[i] = fired - int(iters)
		t.Logf("%d machines: %d events, %d iterations", machines, fired, iters)
		if overhead[i] > bound {
			t.Fatalf("%d machines: %d events beyond the iterations, want ≤ %d", machines, overhead[i], bound)
		}
	}
	if d := overhead[1] - overhead[0]; d < -2 || d > 2 {
		t.Fatalf("control-plane events moved from %d to %d between 16 and 128 machines", overhead[0], overhead[1])
	}
}

// BenchmarkControlPlaneHealthyDay is one failure-free simulated day of
// the control plane: heartbeats, root polls and iteration commits, up
// to the 1000-machine scale of a control-plane campaign.
func BenchmarkControlPlaneHealthyDay(b *testing.B) {
	for _, machines := range []int{16, 128, 1000} {
		b.Run(fmt.Sprint(machines), func(b *testing.B) {
			var fired int
			for i := 0; i < b.N; i++ {
				fired, _ = healthyRun(b, machines, simclock.Day)
			}
			b.ReportMetric(float64(fired), "events/op")
		})
	}
}
