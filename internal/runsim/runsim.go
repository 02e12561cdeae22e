// Package runsim is the long-horizon training simulator behind §7.3:
// given a checkpointing solution, a failure schedule, and a cluster
// placement, it walks the schedule and accounts for every second —
// productive training, per-checkpoint serialization stalls, rolled-back
// progress, and recovery downtime — producing the effective
// training-time ratio of Figures 15a and 15b.
package runsim

import (
	"fmt"
	"sync"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// runScratch is the pooled per-run arena for the failure-window walk: a
// FailSet sized to the largest cluster seen plus its rank list. Run
// returns it to the pool with every bit cleared, so a warm campaign run
// allocates nothing for window state.
type runScratch struct {
	hwSet   placement.FailSet
	hwRanks []int
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// samplesPool recycles WastedSamples backing arrays handed back through
// Result.Release.
var samplesPool = sync.Pool{New: func() any { return new([]float64) }}

// Config describes one simulated run.
type Config struct {
	// Spec is the checkpointing solution under test.
	Spec baselines.Spec
	// Placement decides CPU-memory survival for GEMINI-style specs; it
	// may be nil for remote-storage solutions.
	Placement *placement.Placement
	// Machines is the real cluster size N the failure schedule is
	// validated against. Zero defaults to Placement.N when a placement
	// is present; remote-storage specs (nil Placement) must state it
	// explicitly so schedules with out-of-range ranks are rejected
	// instead of silently accepted. When both are set they must agree.
	Machines int
	// Failures is the injected failure schedule.
	Failures failure.Schedule
	// Horizon is the simulated wall-clock length.
	Horizon simclock.Duration
	// ReplacementDelay is the machine-provisioning delay paid per
	// hardware failure (zero when standby machines absorb it).
	ReplacementDelay simclock.Duration
	// SimultaneityWindow groups failures that land within it into one
	// recovery (they are "simultaneous" in the Corollary 1 sense).
	// Zero selects the recovery downtime itself as the window.
	SimultaneityWindow simclock.Duration
	// Obs optionally taps the walk (tracer spans, run.* metrics,
	// per-recovery timelines). Pure observer: Result is bit-identical
	// with or without it, and the zero Observer costs nothing.
	Obs Observer
}

func (c *Config) validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	// Negated comparisons so that NaN fails them too.
	if !(c.Horizon > 0) {
		return fmt.Errorf("runsim: horizon %v must be positive", c.Horizon)
	}
	if !(c.ReplacementDelay >= 0) || !(c.SimultaneityWindow >= 0) {
		return fmt.Errorf("runsim: negative delays")
	}
	if c.Spec.UsesCPUMemory && c.Placement == nil {
		return fmt.Errorf("runsim: CPU-memory solution needs a placement")
	}
	if c.Machines < 0 {
		return fmt.Errorf("runsim: negative machine count %d", c.Machines)
	}
	n := c.Machines
	if c.Placement != nil {
		if n == 0 {
			n = c.Placement.N
		} else if n != c.Placement.N {
			return fmt.Errorf("runsim: Machines %d disagrees with placement over %d machines", n, c.Placement.N)
		}
	}
	if n == 0 {
		return fmt.Errorf("runsim: remote-storage config needs Machines set to validate failure ranks")
	}
	return c.Failures.Validate(n)
}

// Result is the outcome of a run.
type Result struct {
	// EffectiveRatio is productive progress divided by the horizon.
	EffectiveRatio float64
	// Failures processed (grouped recoveries count each member).
	Failures int
	// Recoveries by source.
	FromLocal, FromPeer, FromRemote int
	// TotalWasted is Σ (lost progress + recovery downtime).
	TotalWasted simclock.Duration
	// TotalLost and TotalDowntime split TotalWasted into Eq. 1's two
	// terms: rolled-back progress vs detection-to-resumption downtime.
	TotalLost, TotalDowntime simclock.Duration
	// MeanWasted is TotalWasted over the number of recoveries.
	MeanWasted simclock.Duration
	// StallTime is the cumulative per-checkpoint serialization stall.
	StallTime simclock.Duration
	// WastedSamples holds the per-recovery wasted time in seconds, in
	// occurrence order, for distribution analysis.
	WastedSamples []float64
}

// Release recycles the WastedSamples backing array into the run pool.
// Optional: call it when the caller is done with the result (campaign
// loops that only read the scalar fields), never while WastedSamples is
// still referenced. The result remains valid except for WastedSamples,
// which becomes nil.
func (r *Result) Release() {
	if r.WastedSamples == nil {
		return
	}
	s := r.WastedSamples[:0]
	r.WastedSamples = nil
	samplesPool.Put(&s)
}

// WastedSummary returns order statistics over the per-recovery wasted
// times. It panics when no recoveries happened.
func (r *Result) WastedSummary() metrics.Summary {
	return metrics.Summarize(r.WastedSamples)
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := cfg.Spec
	// Productive fraction while up: each Interval of progress costs
	// Interval + Stall of wall time.
	period := s.Interval + s.PerCheckpointStall
	phi := float64(s.Interval / period)

	res := &Result{}
	// Wasted-sample backing from the pool, pre-sized to the worst case
	// (one recovery per failure event).
	sp := samplesPool.Get().(*[]float64)
	res.WastedSamples = (*sp)[:0]
	if cap(res.WastedSamples) < len(cfg.Failures) {
		res.WastedSamples = make([]float64, 0, len(cfg.Failures))
	}
	var progress float64 // seconds of productive training achieved
	var resume simclock.Time
	// lastRemote tracks the newest remote-tier checkpoint: the progress
	// value it captured. Remote checkpoints fire on the RemoteInterval
	// grid while training is up.
	var lastRemoteProgress float64
	var nextRemote simclock.Time = simclock.Time(s.RemoteInterval)

	horizon := simclock.Time(cfg.Horizon)
	recoveries := 0

	// advanceUptime accrues progress over [resume, until) and fires
	// remote-tier checkpoints on their grid. Only a CPU-memory solution
	// ever rolls back to lastRemoteProgress (its FromRemote branch
	// below), so the grid is stepped for those alone; the progress and
	// stall arithmetic is the same either way.
	advanceUptime := func(until simclock.Time) {
		if until <= resume {
			return
		}
		for s.UsesCPUMemory && nextRemote < until {
			if nextRemote >= resume {
				lastRemoteProgress = progress + float64(nextRemote.Sub(resume))*phi
			}
			nextRemote = nextRemote.Add(s.RemoteInterval)
		}
		up := until.Sub(resume)
		progress += float64(up) * phi
		res.StallTime += simclock.Duration(float64(up) * (1 - phi))
	}

	events := cfg.Failures
	i := 0
	taps := cfg.Obs.taps()
	// Failure-window scratch for the bitset survival kernel, reused
	// across windows and pooled across runs: a rank list plus a FailSet
	// sized to the cluster. The pool invariant is all-bits-clear, so a
	// recycled set behaves like a fresh one.
	sc := scratchPool.Get().(*runScratch)
	hwRanks := sc.hwRanks[:0]
	var hwSet placement.FailSet
	if cfg.Placement != nil {
		words := (cfg.Placement.N + 63) >> 6
		if cap(sc.hwSet) < words {
			sc.hwSet = make(placement.FailSet, words)
		}
		hwSet = sc.hwSet[:words]
	}
	window := cfg.SimultaneityWindow
	if window == 0 {
		window = s.RecoveryDowntime(baselines.FromPeer, cfg.ReplacementDelay)
	}
	for i < len(events) {
		if events[i].At >= horizon {
			break
		}
		// Group simultaneous failures. The window is anchored at the
		// group's first event and never chains — failure.GroupEnd is the
		// shared definition, so the analyzer's SimultaneousGroups counts
		// and this walk always agree on the Corollary 1 k.
		j := events.GroupEnd(i, window)
		for _, r := range hwRanks {
			hwSet.Clear(r)
		}
		hwRanks = hwRanks[:0]
		hardware := false
		for _, ev := range events[i:j] {
			if ev.Kind == cluster.HardwareFailed {
				hardware = true
				if hwSet != nil && !hwSet.Has(ev.Rank) {
					hwSet.Set(ev.Rank)
					hwRanks = append(hwRanks, ev.Rank)
				}
			}
			res.Failures++
			if taps.on {
				taps.failure(ev)
			}
		}
		at := events[i].At
		if at < resume {
			at = resume // failure landed during a recovery; handle after
		}
		advanceUptime(at)

		// Decide the recovery source.
		src := baselines.FromRemote
		if s.UsesCPUMemory {
			switch {
			case !hardware:
				src = baselines.FromLocal
			case cfg.Placement.SurvivesFailed(hwRanks, hwSet):
				src = baselines.FromPeer
			default:
				src = baselines.FromRemote
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

		// Roll back progress to the newest usable checkpoint.
		var rollback float64
		if s.UsesCPUMemory && src != baselines.FromRemote {
			// CPU tier: the newest complete checkpoint lags CompletionLag
			// behind and captures progress on the Interval grid.
			rollback = lostSinceCheckpoint(progress, s.Interval, s.CompletionLag, phi)
		} else if !s.UsesCPUMemory {
			rollback = lostSinceCheckpoint(progress, s.Interval, s.CompletionLag, phi)
		} else {
			rollback = progress - lastRemoteProgress
		}
		if rollback < 0 {
			rollback = 0
		}
		if rollback > progress {
			rollback = progress
		}
		progress -= rollback

		replacement := simclock.Duration(0)
		if hardware {
			replacement = cfg.ReplacementDelay
		}
		down := s.RecoveryDowntime(src, replacement)
		wasted := simclock.Duration(rollback) + down
		res.TotalWasted += wasted
		res.TotalLost += simclock.Duration(rollback)
		res.TotalDowntime += down
		res.WastedSamples = append(res.WastedSamples, wasted.Seconds())
		resume = at.Add(down)
		if taps.on {
			taps.recovery(src, at, resume, rollback, down, progress)
		}
		recoveries++
		i = j
	}
	// Restore the pool invariant (clear exactly the bits the last window
	// set) and hand the scratch back.
	for _, r := range hwRanks {
		hwSet.Clear(r)
	}
	sc.hwRanks = hwRanks[:0]
	scratchPool.Put(sc)
	if resume < horizon {
		advanceUptime(horizon)
	}
	res.EffectiveRatio = progress / float64(cfg.Horizon)
	if recoveries > 0 {
		res.MeanWasted = res.TotalWasted / simclock.Duration(recoveries)
	}
	if taps.on {
		taps.finish(res)
	}
	return res, nil
}

// lostSinceCheckpoint estimates the progress rolled back when recovering
// from the per-interval checkpoint tier: on average half an interval of
// progress plus the completion lag (the Equation 1 structure), bounded by
// the current progress. The deterministic walk uses the progress phase
// within the interval instead of the expectation.
func lostSinceCheckpoint(progress float64, interval, lag simclock.Duration, phi float64) float64 {
	if interval <= 0 {
		return 0
	}
	phase := progress - float64(interval)*float64(int(progress/float64(interval)))
	return phase + float64(lag)*phi
}

// MustRun is Run for known-good configs.
func MustRun(cfg Config) *Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}
