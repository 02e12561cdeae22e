package agent

// Run health monitor: the control plane's self-observation layer. It
// tracks the quantities the paper reasons about — replica coverage
// (Theorem 1), checkpoint staleness against both storage tiers, and the
// Eq. 1 wasted-time breakdown per failure (T_lost + T_recovery) — as
// metrics gauges/histograms and as Perfetto counter samples. Like
// tracing, it is a pure observer: it reads simulation state and never
// schedules events, so a monitored run replays bit-identically.

import (
	"gemini/internal/metrics"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/trace"
)

// healthMonitor holds the control plane's registered instruments.
type healthMonitor struct {
	iteration   *metrics.Gauge
	coverage    *metrics.Gauge
	minReplicas *metrics.Gauge
	staleLocal  *metrics.Gauge
	staleRemote *metrics.Gauge
	recoveries  *metrics.CounterVar
	wasted      *metrics.Histogram
	lost        *metrics.Histogram
	downtime    *metrics.Histogram
	// Strategy observability: switches counts adaptive policy changes;
	// active encodes the policy in force as its index in the sorted
	// registry names.
	stratSwitches *metrics.CounterVar
	stratActive   *metrics.Gauge
}

// SetMetrics attaches a health monitor publishing into reg under the
// health.* namespace. Call before Start; a nil registry leaves
// monitoring disabled and free.
func (s *System) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.health = &healthMonitor{
		iteration:   reg.Gauge("health.iteration"),
		coverage:    reg.Gauge("health.replica_coverage"),
		minReplicas: reg.Gauge("health.min_replicas"),
		staleLocal:  reg.Gauge("health.ckpt_staleness_local"),
		staleRemote: reg.Gauge("health.ckpt_staleness_remote"),
		recoveries:  reg.Counter("health.recoveries"),
		wasted:      reg.Histogram("health.wasted_seconds"),
		lost:        reg.Histogram("health.lost_seconds"),
		downtime:    reg.Histogram("health.recovery_seconds"),

		stratSwitches: reg.Counter("strategy.switches"),
		stratActive:   reg.Gauge("strategy.active"),
	}
	// Seed the gauges, sampling into no track: attaching a registry
	// writes nothing to an attached tracer.
	s.observeHealth(nil)
}

// WastedEvents returns the per-failure Eq. 1 records in completion
// order. Recorded whether or not a metrics registry is attached.
func (s *System) WastedEvents() []strategy.Outcome { return s.wastedEvents }

// observeHealth refreshes the coverage and staleness gauges from the
// checkpoint engine's placement state, and samples them on track when
// it is enabled. Called, with the root track, at every gauge-moving
// control-plane transition: iteration completion, failure injection,
// recovery completion. Reads state only — never schedules events.
func (s *System) observeHealth(track *trace.Track) {
	if s.health == nil && !track.Enabled() {
		return
	}
	covered, minReplicas := s.ckpt.Coverage(s.healthy)
	coverage := float64(covered) / float64(s.placement.N)

	// Local staleness: the worst owner's distance from its newest
	// surviving in-memory generation; an owner with nothing surviving is
	// as stale as the run is long.
	var staleLocal int64
	for owner := 0; owner < s.placement.N; owner++ {
		stale := s.iteration
		if v, ok := s.ckpt.NewestCommitted(owner, s.healthy); ok {
			stale = s.iteration - v
		}
		if stale < 0 {
			stale = 0
		}
		if stale > staleLocal {
			staleLocal = stale
		}
	}
	staleRemote := s.iteration - s.lastRemoteCommitted
	if staleRemote < 0 {
		staleRemote = 0
	}

	if h := s.health; h != nil {
		h.iteration.Set(float64(s.iteration))
		h.coverage.Set(coverage)
		h.minReplicas.Set(float64(minReplicas))
		h.staleLocal.Set(float64(staleLocal))
		h.staleRemote.Set(float64(staleRemote))
		h.stratActive.Set(float64(strategy.Index(s.strategy.Active())))
	}
	if track.Enabled() {
		track.Sample("replica_coverage", coverage)
		track.Sample("min_replicas", float64(minReplicas))
		track.Sample("ckpt_staleness_local", float64(staleLocal))
	}
}

// recordRecovery appends the failure's Eq. 1 record, feeds the wasted-
// time histograms, and returns the record. Called once per completed
// recovery, just before training resumes.
func (s *System) recordRecovery(failed []int, source string, version, lostIters int64, hardware bool) strategy.Outcome {
	now := s.engine.Now()
	ev := strategy.Outcome{
		Detected:       s.recoveryStart,
		Resumed:        now,
		Ranks:          append([]int(nil), failed...),
		Source:         source,
		Version:        version,
		LostIterations: lostIters,
		TLost:          simclock.Duration(lostIters) * s.spec.Interval,
		TRecovery:      now.Sub(s.recoveryStart),
		Hardware:       hardware,
	}
	s.wastedEvents = append(s.wastedEvents, ev)
	if h := s.health; h != nil {
		h.recoveries.Inc()
		h.wasted.Observe(ev.Wasted().Seconds())
		h.lost.Observe(ev.TLost.Seconds())
		h.downtime.Observe(ev.TRecovery.Seconds())
	}
	if s.rootTrack.Enabled() {
		s.rootTrack.Sample("wasted_seconds", ev.Wasted().Seconds())
		s.rootTrack.InstantArgs(trace.CatAgent, "wasted-time",
			"source="+source+" t_lost="+ev.TLost.String()+" t_recovery="+ev.TRecovery.String())
	}
	return ev
}
