package runsim

// Observation taps for the event walk. The flight recorder's promise —
// "re-run the outlier and the deep observability is free" — rests on
// Run being a *pure observer* host: attaching any combination of taps
// never changes Result, and the zero Observer adds no allocations to
// the walk (gated by an alloc test, like the nil tracer and nil
// registry before it).

import (
	"fmt"

	"gemini/internal/baselines"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// Observer collects what a run can tell about itself. Every field is
// optional; the zero Observer is fully disabled.
type Observer struct {
	// Tracer receives the Perfetto view: a run/recovery track with one
	// span per recovery (category "recovery", named by source), an
	// instant per injected failure, and a cumulative wasted-seconds
	// counter sampled at each resumption.
	Tracer *trace.Tracer
	// Metrics receives run.* instruments: failure/recovery/source
	// counters, per-recovery wasted/lost/downtime histograms, and
	// single-observation effective-ratio and stall histograms (so
	// cross-run merges yield distributions).
	Metrics *metrics.Registry
	// Wasted and Ratio receive one point per recovery at its resumption
	// time: cumulative wasted seconds, and progress-so-far divided by
	// elapsed sim time. Resumption times are strictly increasing
	// (downtime is always positive), so the timeline CSV these render
	// into is strictly time-ordered. Callers size the rings.
	Wasted *metrics.Series
	Ratio  *metrics.Series
}

// runTaps holds the resolved per-run instruments. Resolving them once
// up front keeps the walk free of map lookups, and the counters land
// once per run, at finish; only the histograms, the track and the
// series are tapped per recovery. on is false for the zero Observer,
// and the walk then skips every tap call; the calls below also no-op
// without allocating on a nil instrument.
type runTaps struct {
	on    bool
	track *trace.Track

	failures, recoveries            *metrics.CounterVar
	fromLocal, fromPeer, fromRemote *metrics.CounterVar
	wastedH, lostH, downH           *metrics.Histogram
	ratioH, stallH                  *metrics.Histogram

	wastedSeries, ratioSeries *metrics.Series
	cumWasted                 float64
}

func (o Observer) taps() runTaps {
	if o == (Observer{}) {
		return runTaps{}
	}
	reg := o.Metrics
	return runTaps{
		on:           true,
		track:        o.Tracer.Track("run", "recovery"),
		failures:     reg.Counter("run.failures"),
		recoveries:   reg.Counter("run.recoveries"),
		fromLocal:    reg.Counter("run.from_local"),
		fromPeer:     reg.Counter("run.from_peer"),
		fromRemote:   reg.Counter("run.from_remote"),
		wastedH:      reg.Histogram("run.wasted_seconds"),
		lostH:        reg.Histogram("run.lost_seconds"),
		downH:        reg.Histogram("run.downtime_seconds"),
		ratioH:       reg.Histogram("run.effective_ratio"),
		stallH:       reg.Histogram("run.stall_seconds"),
		wastedSeries: o.Wasted,
		ratioSeries:  o.Ratio,
	}
}

// failure marks one injected failure on the run's track. The walk
// calls it only while the track is enabled.
func (t *runTaps) failure(ev failure.Event) {
	t.track.InstantArgsAt("failure", ev.Kind.String(), ev.At,
		fmt.Sprintf("rank=%d", ev.Rank))
}

func (t *runTaps) recovery(src baselines.RecoverySource, start, resume simclock.Time,
	rollback float64, down simclock.Duration, progress float64) {
	wasted := rollback + down.Seconds()
	t.wastedH.Observe(wasted)
	t.lostH.Observe(rollback)
	t.downH.Observe(down.Seconds())
	t.cumWasted += wasted
	if t.track.Enabled() {
		t.track.SpanArgs("recovery", src.String(), start, resume,
			fmt.Sprintf("lost=%.0fs down=%s", rollback, down))
		t.track.SampleAt("wasted_seconds", resume, t.cumWasted)
	}
	t.wastedSeries.Append(resume, t.cumWasted)
	t.ratioSeries.Append(resume, progress/float64(resume))
}

// finish lands the whole-run outcomes. The counters land once, from
// the result: adding n equals adding 1 n times exactly for any count
// below 2^53. The effective ratio and stall are histograms with a
// single observation (not gauges) so that merging many runs' registries
// yields their cross-run distribution instead of last-merged-wins.
func (t *runTaps) finish(res *Result) {
	t.failures.Add(float64(res.Failures))
	t.recoveries.Add(float64(res.FromLocal + res.FromPeer + res.FromRemote))
	t.fromLocal.Add(float64(res.FromLocal))
	t.fromPeer.Add(float64(res.FromPeer))
	t.fromRemote.Add(float64(res.FromRemote))
	t.ratioH.Observe(res.EffectiveRatio)
	t.stallH.Observe(res.StallTime.Seconds())
}
