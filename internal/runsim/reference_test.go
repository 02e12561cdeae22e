package runsim

import (
	"fmt"
	"slices"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// referenceRun is the walk written out plainly: the default window
// recomputed per group, each recovery's tier spelled out from the spec's
// fields, no pools and no taps. Run must reproduce it bit for bit.
func referenceRun(cfg Config) Result {
	s := cfg.Spec
	period := s.Interval + s.PerCheckpointStall
	phi := float64(s.Interval / period)
	var res Result
	var progress float64
	var resume simclock.Time
	horizon := simclock.Time(cfg.Horizon)
	recoveries := 0
	advanceUptime := func(until simclock.Time) {
		if until <= resume {
			return
		}
		up := until.Sub(resume)
		progress += float64(up) * phi
		res.StallTime += simclock.Duration(float64(up) * (1 - phi))
	}
	events := cfg.Failures
	for i := 0; i < len(events) && events[i].At < horizon; {
		window := cfg.SimultaneityWindow
		if window == 0 {
			window = s.Phases(baselines.FromPeer, cfg.ReplacementDelay).Total()
		}
		j := events.GroupEnd(i, window)
		hwFailed := map[int]bool{}
		hardware := false
		for _, ev := range events[i:j] {
			if ev.Kind == cluster.HardwareFailed {
				hardware = true
				hwFailed[ev.Rank] = true
			}
			res.Failures++
		}
		at := events[i].At
		if at < resume {
			at = resume
		}
		advanceUptime(at)
		src := baselines.FromRemote
		if s.UsesCPUMemory {
			switch {
			case !hardware:
				src = baselines.FromLocal
			case cfg.Placement.Survives(hwFailed):
				src = baselines.FromPeer
			}
		}
		switch src {
		case baselines.FromLocal:
			res.FromLocal++
		case baselines.FromPeer:
			res.FromPeer++
		default:
			res.FromRemote++
		}
		// A CPU-memory solution that lost a whole group reads its remote
		// tier, which checkpoints every RemoteInterval and completes after
		// the remote push.
		interval, lag := s.Interval, s.CompletionLag
		if s.UsesCPUMemory && src == baselines.FromRemote {
			interval, lag = s.RemoteInterval, s.RetrievalRemote
		}
		rollback := lostSinceCheckpoint(progress, interval, lag, phi)
		rollback = min(max(rollback, 0), progress)
		progress -= rollback
		replacement := simclock.Duration(0)
		if hardware {
			replacement = cfg.ReplacementDelay
		}
		down := s.Phases(src, replacement).Total()
		wasted := simclock.Duration(rollback) + down
		res.TotalWasted += wasted
		res.TotalLost += simclock.Duration(rollback)
		res.TotalDowntime += down
		res.WastedSamples = append(res.WastedSamples, wasted.Seconds())
		resume = at.Add(down)
		recoveries++
		i = j
	}
	if resume < horizon {
		advanceUptime(horizon)
	}
	res.EffectiveRatio = progress / float64(cfg.Horizon)
	return res
}

// Run equals the reference walk exactly — every scalar and every wasted
// sample — for all three solutions over seeded Poisson schedules that
// reach every recovery source, including whole-group losses that roll a
// CPU-memory solution back to its remote checkpoint.
func TestRunMatchesReferenceWalk(t *testing.T) {
	const machines = 16
	straw, high, gem := specs(t, machines)
	pl := placement.MustMixed(machines, 2)
	fromRemote, seed := 0, int64(0)
	for _, rate := range []float64{0.015, 0.3, 1} {
		for _, hw := range []float64{0, 0.5, 1} {
			for _, window := range []simclock.Duration{0, 10 * simclock.Second, simclock.Hour} {
				for _, delay := range []simclock.Duration{0, 20 * simclock.Minute} {
					seed++
					fs, err := failure.Model{PerInstancePerDay: rate, HardwareFraction: hw}.Generate(machines, 20*day, seed)
					if err != nil {
						t.Fatal(err)
					}
					for _, spec := range []baselines.Spec{straw, high, gem} {
						cfg := Config{Spec: spec, Machines: machines, Failures: fs, Horizon: 20 * day,
							ReplacementDelay: delay, SimultaneityWindow: window}
						if spec.UsesCPUMemory {
							cfg.Placement = pl
						}
						want := referenceRun(cfg)
						got := MustRun(cfg)
						if fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", want) || !slices.Equal(got.WastedSamples, want.WastedSamples) {
							t.Fatalf("%s rate %v hw %v window %v delay %v:\nRun       %+v\nreference %+v",
								spec.Name, rate, hw, window, delay, *got, want)
						}
						if spec.UsesCPUMemory {
							fromRemote += got.FromRemote
						}
						got.Release()
					}
				}
			}
		}
	}
	if fromRemote == 0 {
		t.Fatal("no CPU-memory run fell back to the remote tier; the remote-tier rollback went unchecked")
	}
}
