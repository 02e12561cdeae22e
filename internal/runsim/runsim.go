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
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

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

// validate checks everything about one run but its failure schedule,
// which RunAll checks once for all the runs that share it, and returns
// the cluster size the schedule's ranks must fall in.
func (c *Config) validate() (int, error) {
	if err := c.Spec.Validate(); err != nil {
		return 0, err
	}
	// Negated comparisons so that NaN fails them too.
	if !(c.Horizon > 0) {
		return 0, fmt.Errorf("runsim: horizon %v must be positive", c.Horizon)
	}
	if !(c.ReplacementDelay >= 0) || !(c.SimultaneityWindow >= 0) {
		return 0, fmt.Errorf("runsim: negative delays")
	}
	if c.Spec.UsesCPUMemory && c.Placement == nil {
		return 0, fmt.Errorf("runsim: CPU-memory solution needs a placement")
	}
	if c.Machines < 0 {
		return 0, fmt.Errorf("runsim: negative machine count %d", c.Machines)
	}
	n := c.Machines
	if c.Placement != nil {
		if n == 0 {
			n = c.Placement.N
		} else if n != c.Placement.N {
			return 0, fmt.Errorf("runsim: Machines %d disagrees with placement over %d machines", n, c.Placement.N)
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("runsim: remote-storage config needs Machines set to validate failure ranks")
	}
	return n, nil
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

// Run executes the simulation: RunAll over the one config.
func Run(cfg Config) (*Result, error) {
	var out [1]*Result
	if err := RunAll([]Config{cfg}, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// RunAll executes every config against the one failure schedule they
// share and stores run k's result in out[k], which must be as long as
// cfgs. Every Config.Failures must be the same slice (same length and
// first element); the schedule is validated once, against the smallest
// cluster among the runs. Each result equals what Run returns for its
// config alone, and each run's taps fire in the same order.
//
// Runs that agree on the horizon, the replacement delay and the
// effective simultaneity window walk the schedule in one pass (see
// walker); runs that differ get passes of their own within the call.
// An invalid config fails the call with no result stored; with more
// than one config, the error names the run.
func RunAll(cfgs []Config, out []*Result) error {
	if len(out) != len(cfgs) {
		return fmt.Errorf("runsim: %d results for %d runs", len(out), len(cfgs))
	}
	if len(cfgs) == 0 {
		return nil
	}
	machines := 0
	for k := range cfgs {
		n, err := cfgs[k].validate()
		if err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("runsim: run %d (%s): %w", k, cfgs[k].Spec.Name, err)
			}
			return err
		}
		if k == 0 || n < machines {
			machines = n
		}
	}
	fs := cfgs[0].Failures
	for k := 1; k < len(cfgs); k++ {
		if f := cfgs[k].Failures; len(f) != len(fs) || len(f) > 0 && &f[0] != &fs[0] {
			return fmt.Errorf("runsim: run %d (%s) does not share run 0's failure schedule", k, cfgs[k].Spec.Name)
		}
	}
	if err := fs.Validate(machines); err != nil {
		return err
	}
	w := walkers.Get().(*walker)
	w.plan(cfgs, out)
	for p := range w.passes {
		w.walk(fs, &w.passes[p])
	}
	// Drop the call's results, instruments and placements before the
	// walker goes back to the pool.
	clear(w.runs)
	walkers.Put(w)
	return nil
}

// lostSinceCheckpoint is the progress rolled back when recovering from a
// checkpoint tier with the given interval and completion lag: the
// progress phase within the interval plus the lag's worth of progress.
// Over a uniformly placed failure that is Equation 1's half an interval
// plus the lag; the walk bounds it by the current progress.
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
