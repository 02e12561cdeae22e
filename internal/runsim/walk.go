package runsim

import (
	"sync"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// walker is the pooled state of one RunAll call. Its runs are grouped
// into passes: runs that agree on the horizon, the replacement delay and
// the effective simultaneity window group the schedule identically, so
// one pass scans each failure group once for all of them — its extent
// (failure.GroupEnd), whether it holds a hardware failure, and its
// failed ranks as a FailSet. Each run then resolves its recovery source
// and recovers from that group on its own state, in config order.
type walker struct {
	// runs holds every run's state, pass by pass, in config order within
	// a pass.
	runs   []runState
	passes []pass
	// passOf is plan's scratch: the pass of each config.
	passOf []int
	// hwSet and hwRanks hold the current group's failed hardware ranks.
	// hwSet is sized to the largest placement seen; the pool invariant
	// is all bits clear.
	hwSet   placement.FailSet
	hwRanks []int
}

var walkers = sync.Pool{New: func() any { return new(walker) }}

// passKey is what runs must agree on to group the schedule alike.
type passKey struct {
	horizon       simclock.Time
	delay, window simclock.Duration
}

// pass is one walk over the schedule: its key, and its runs as a range
// of walker.runs. cpu is set when one of them is a CPU-memory run, the
// only kind that reads the group's failed ranks.
type pass struct {
	passKey
	runLo, runHi int
	cpu          bool
}

// runState is one run's side of a pass: its spec's constants, resolved
// once, and its own progress, result and taps.
type runState struct {
	res *Result
	cpu bool
	// place decides a CPU-memory run's survival of hardware failures.
	place *placement.Placement
	// phi is the productive fraction of uptime, stallFrac 1 − phi.
	phi, stallFrac float64
	// tier is each recovery source's Eq. 1 model, the spec's
	// WastedModel: the Interval and completion lag (CheckpointTime) of
	// the checkpoint tier the recovery reads.
	tier [3]metrics.WastedTimeModel
	// down is the spec's recovery downtime (Phases.Total) by (source, hardware): the
	// replacement delay is paid when the group held a hardware failure.
	down [3][2]simclock.Duration
	// recoveries counts recoveries by source.
	recoveries [3]int

	progress float64 // seconds of productive training achieved
	resume   simclock.Time
	stall    simclock.Duration // the result's StallTime
	taps     runTaps
}

// plan groups the configs into passes and sets up each run's state and
// result, storing run k's result in out[k].
func (w *walker) plan(cfgs []Config, out []*Result) {
	w.passes = w.passes[:0]
	w.passOf = w.passOf[:0]
	for k := range cfgs {
		c := &cfgs[k]
		window := c.SimultaneityWindow
		if window == 0 {
			window = c.Spec.Phases(baselines.FromPeer, c.ReplacementDelay).Total()
		}
		key := passKey{simclock.Time(c.Horizon), c.ReplacementDelay, window}
		q := 0
		for q < len(w.passes) && w.passes[q].passKey != key {
			q++
		}
		if q == len(w.passes) {
			w.passes = append(w.passes, pass{passKey: key})
		}
		w.passOf = append(w.passOf, q)
	}
	w.runs = w.runs[:0]
	words := 0
	for q := range w.passes {
		p := &w.passes[q]
		p.runLo = len(w.runs)
		for k := range cfgs {
			if w.passOf[k] != q {
				continue
			}
			rs := newRunState(&cfgs[k], out, k)
			if rs.cpu {
				p.cpu = true
				words = max(words, (rs.place.N+63)>>6)
			}
			w.runs = append(w.runs, rs)
		}
		p.runHi = len(w.runs)
	}
	if len(w.hwSet) < words {
		w.hwSet = make(placement.FailSet, words)
	}
}

// newRunState resolves config k's spec and sets up its result in out[k].
func newRunState(c *Config, out []*Result, k int) runState {
	s := &c.Spec
	// Productive fraction while up: each Interval of progress costs
	// Interval + Stall of wall time.
	period := s.Interval + s.PerCheckpointStall
	phi := float64(s.Interval / period)
	rs := runState{
		res:       &Result{},
		cpu:       s.UsesCPUMemory,
		place:     c.Placement,
		phi:       phi,
		stallFrac: 1 - phi,
		taps:      c.Obs.taps(),
	}
	for src := baselines.FromLocal; src <= baselines.FromRemote; src++ {
		rs.tier[src] = s.WastedModel(src)
		rs.down[src][0] = s.Phases(src, 0).Total()
		rs.down[src][1] = s.Phases(src, c.ReplacementDelay).Total()
	}
	// Wasted-sample backing from the pool, pre-sized to the worst case
	// (one recovery per failure event).
	sp := samplesPool.Get().(*[]float64)
	rs.res.WastedSamples = (*sp)[:0]
	if cap(rs.res.WastedSamples) < len(c.Failures) {
		rs.res.WastedSamples = make([]float64, 0, len(c.Failures))
	}
	out[k] = rs.res
	return rs
}

// walk plays the schedule against one pass's runs and lands their
// results.
func (w *walker) walk(events failure.Schedule, p *pass) {
	runs := w.runs[p.runLo:p.runHi]
	hwRanks := w.hwRanks[:0]
	for i := 0; i < len(events) && events[i].At < p.horizon; {
		// Group simultaneous failures. The window is anchored at the
		// group's first event and never chains — failure.GroupEnd is the
		// shared definition, so the analyzer's SimultaneousGroups counts
		// and this walk always agree on the Corollary 1 k.
		j := events.GroupEnd(i, p.window)
		hardware := false
		for _, ev := range events[i:j] {
			if ev.Kind == cluster.HardwareFailed {
				hardware = true
				if p.cpu && !w.hwSet.Has(ev.Rank) {
					w.hwSet.Set(ev.Rank)
					hwRanks = append(hwRanks, ev.Rank)
				}
			}
		}
		hw := 0
		if hardware {
			hw = 1
		}
		for r := range runs {
			rs := &runs[r]
			if rs.taps.track.Enabled() {
				for _, ev := range events[i:j] {
					rs.taps.failure(ev)
				}
			}
			// A remote-storage run always recovers from the remote tier. A
			// CPU-memory run recovers from local memory after software
			// failures, from a peer when its placement kept a replica of
			// every failed rank, and from the remote tier otherwise.
			src := baselines.FromRemote
			if rs.cpu {
				src = baselines.FromLocal
				if hardware {
					src = baselines.FromRemote
					if rs.place.SurvivesFailed(hwRanks, w.hwSet) {
						src = baselines.FromPeer
					}
				}
			}
			rs.recover(events[i].At, j-i, hw, src)
		}
		// Restore the pool invariant: clear exactly the bits this group set.
		for _, r := range hwRanks {
			w.hwSet.Clear(r)
		}
		hwRanks = hwRanks[:0]
		i = j
	}
	w.hwRanks = hwRanks
	for r := range runs {
		runs[r].finish(p.horizon)
	}
}

// advance accrues progress over [resume, until), which must be
// nonempty.
func (rs *runState) advance(until simclock.Time) {
	up := float64(until.Sub(rs.resume))
	rs.progress += up * rs.phi
	rs.stall += simclock.Duration(up * rs.stallFrac)
}

// recover handles one failure group of the given size that started at
// at: hw is 1 when it held a hardware failure, and src is the run's
// recovery source.
func (rs *runState) recover(at simclock.Time, failures, hw int, src baselines.RecoverySource) {
	res := rs.res
	res.Failures += failures
	if at > rs.resume {
		rs.advance(at)
	} else {
		at = rs.resume // failure landed during a recovery; handle after
	}
	rs.recoveries[src]++

	// Roll back progress to the newest checkpoint of the tier the
	// recovery reads (Eq. 1): it captured progress on the tier's
	// interval grid and completes the tier's lag later.
	t := &rs.tier[src]
	rollback := lostSinceCheckpoint(rs.progress, t.Interval, t.CheckpointTime, rs.phi)
	if rollback < 0 {
		rollback = 0
	}
	if rollback > rs.progress {
		rollback = rs.progress
	}
	rs.progress -= rollback

	down := rs.down[src][hw]
	wasted := simclock.Duration(rollback) + down
	res.TotalWasted += wasted
	res.TotalLost += simclock.Duration(rollback)
	res.TotalDowntime += down
	res.WastedSamples = append(res.WastedSamples, wasted.Seconds())
	rs.resume = at.Add(down)
	if rs.taps.on {
		rs.taps.recovery(src, at, rs.resume, rollback, down, rs.progress)
	}
}

// finish accrues the uptime after the last recovery and lands the
// run's whole-run outcomes.
func (rs *runState) finish(horizon simclock.Time) {
	if rs.resume < horizon {
		rs.advance(horizon)
	}
	res := rs.res
	res.StallTime = rs.stall
	res.EffectiveRatio = rs.progress / float64(horizon)
	res.FromLocal = rs.recoveries[baselines.FromLocal]
	res.FromPeer = rs.recoveries[baselines.FromPeer]
	res.FromRemote = rs.recoveries[baselines.FromRemote]
	if rs.taps.on {
		rs.taps.finish(res)
	}
}
