package scenario

// The campaign flight recorder. A campaign runs thousands of
// simulations with observability off (the hot path is pooled and
// alloc-free); when one run's outcome looks pathological, we want its
// full trace — after the fact. Determinism makes that free: every run
// is a pure function of (scenario, variation), so re-executing the
// worst offenders with tracer + metrics + timeline attached reproduces
// the recorded outcome exactly. Replay asserts that equality, turning
// the flight recorder into a standing bit-reproducibility check.

import (
	"fmt"
	"io"

	"gemini/internal/metrics"
	"gemini/internal/runsim"
	"gemini/internal/trace"
)

// RunRecord is one (variation, spec) outcome a campaign kept for the
// flight recorder (CampaignOptions.RecordRuns). The float fields are
// the run's exact values — replay compares bit-for-bit.
type RunRecord struct {
	Variation       int     `json:"variation"`
	Spec            string  `json:"spec"`
	EffectiveRatio  float64 `json:"effective_ratio"`
	WastedSeconds   float64 `json:"wasted_seconds"`
	LostSeconds     float64 `json:"lost_seconds"`
	DowntimeSeconds float64 `json:"downtime_seconds"`
	StallSeconds    float64 `json:"stall_seconds"`
	Failures        int     `json:"failures"`
	FromLocal       int     `json:"from_local"`
	FromPeer        int     `json:"from_peer"`
	FromRemote      int     `json:"from_remote"`
}

func makeRecord(v int, spec string, res *runsim.Result) RunRecord {
	return RunRecord{
		Variation:       v,
		Spec:            spec,
		EffectiveRatio:  res.EffectiveRatio,
		WastedSeconds:   res.TotalWasted.Seconds(),
		LostSeconds:     res.TotalLost.Seconds(),
		DowntimeSeconds: res.TotalDowntime.Seconds(),
		StallSeconds:    res.StallTime.Seconds(),
		Failures:        res.Failures,
		FromLocal:       res.FromLocal,
		FromPeer:        res.FromPeer,
		FromRemote:      res.FromRemote,
	}
}

// FlightKeys lists the badness rankings Outliers accepts.
//   - "wasted": most total wasted seconds first.
//   - "ratio": lowest effective training-time ratio first.
//   - "wasted-vs-spec": largest excess over the run's own solution's
//     mean wasted seconds first — surfaces runs that are outliers for
//     their spec, not just runs of the weakest spec.
var FlightKeys = []string{"wasted", "ratio", "wasted-vs-spec"}

// Outliers ranks the report's recorded runs by key and returns the
// worst k (all of them when k exceeds the record count). Ties break by
// (variation, spec) so the ranking is fully deterministic. It errors on
// a negative k, an unknown key or a report without records.
//
// The ranking is a selection, not a sort: one pass keeps the k worst
// records in order, O(n·k) comparisons — each returned run is replayed,
// which costs far more than a pass over the records.
func Outliers(rep *Report, key string, k int) ([]RunRecord, error) {
	if k < 0 {
		return nil, fmt.Errorf("scenario: outlier count k=%d is negative", k)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("scenario: report has no run records (run the campaign with RecordRuns)")
	}
	badness := func(r *RunRecord) float64 { return r.WastedSeconds }
	switch key {
	case "wasted":
	case "ratio":
		badness = func(r *RunRecord) float64 { return -r.EffectiveRatio }
	case "wasted-vs-spec":
		type acc struct {
			sum float64
			n   int
		}
		means := make(map[string]acc)
		for _, r := range rep.Runs {
			a := means[r.Spec]
			a.sum += r.WastedSeconds
			a.n++
			means[r.Spec] = a
		}
		badness = func(r *RunRecord) float64 {
			a := means[r.Spec]
			return r.WastedSeconds - a.sum/float64(a.n)
		}
	default:
		return nil, fmt.Errorf("scenario: unknown flight key %q (have %v)", key, FlightKeys)
	}
	k = min(k, len(rep.Runs))
	worst := make([]RunRecord, 0, k)
	bad := make([]float64, 0, k) // badness of worst[i]
	// ranksBefore reports whether a run of badness ba ranks strictly
	// before worst[j].
	ranksBefore := func(a *RunRecord, ba float64, j int) bool {
		if ba != bad[j] {
			return ba > bad[j]
		}
		if a.Variation != worst[j].Variation {
			return a.Variation < worst[j].Variation
		}
		return a.Spec < worst[j].Spec
	}
	for i := range rep.Runs {
		r := &rep.Runs[i]
		b := badness(r)
		if len(worst) == k && (k == 0 || !ranksBefore(r, b, k-1)) {
			continue
		}
		// Insert after every kept record that r does not rank before, so
		// equal records keep their report order as a stable sort would.
		j := len(worst)
		for j > 0 && ranksBefore(r, b, j-1) {
			j--
		}
		if len(worst) < k {
			worst = append(worst, RunRecord{})
			bad = append(bad, 0)
		}
		copy(worst[j+1:], worst[j:])
		copy(bad[j+1:], bad[j:])
		worst[j], bad[j] = *r, b
	}
	return worst, nil
}

// FlightRun is one outlier re-executed with full observability.
type FlightRun struct {
	Tracer   *trace.Tracer
	Registry *metrics.Registry
	// Wasted and Ratio are the per-recovery timelines (cumulative
	// wasted seconds; progress over elapsed sim time).
	Wasted, Ratio *metrics.Series
}

// Replay deterministically re-executes a recorded run with tracer,
// metrics, and timeline taps attached, then asserts the re-run's
// outcome equals the record exactly — any divergence is an error, not a
// warning, because it falsifies the determinism contract every report
// hash in this repo rests on.
func (c *Compiled) Replay(rec RunRecord) (*FlightRun, error) {
	var spec int = -1
	for si := range c.Specs {
		if c.Specs[si].Name == rec.Spec {
			spec = si
			break
		}
	}
	if spec < 0 {
		return nil, fmt.Errorf("scenario: flight replay: spec %q not in scenario", rec.Spec)
	}
	fs, err := c.FailureSchedule(rec.Variation)
	if err != nil {
		return nil, err
	}
	capacity := len(fs) + 1 // ≤ one recovery per failure event
	fr := &FlightRun{
		Tracer:   trace.NewTracer(nil),
		Registry: metrics.NewRegistry(),
		Wasted:   metrics.NewSeries("wasted_seconds", capacity),
		Ratio:    metrics.NewSeries("effective_ratio", capacity),
	}
	cfg, err := c.runConfig(c.Specs[spec], fs)
	if err != nil {
		return nil, fmt.Errorf("scenario: flight replay: %w", err)
	}
	cfg.Obs = runsim.Observer{
		Tracer:  fr.Tracer,
		Metrics: fr.Registry,
		Wasted:  fr.Wasted,
		Ratio:   fr.Ratio,
	}
	res, err := runsim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: flight replay: %w", err)
	}
	if got := makeRecord(rec.Variation, rec.Spec, res); got != rec {
		return nil, fmt.Errorf("scenario: flight replay diverged from campaign record:\nrecorded %+v\nreplayed %+v", rec, got)
	}
	return fr, nil
}

// WriteTrace renders the replay's Perfetto trace JSON.
func (f *FlightRun) WriteTrace(w io.Writer) error {
	return trace.WriteJSON(w, f.Tracer)
}

// WriteTimeline renders the replay's per-recovery timeline CSV (time,
// cumulative wasted seconds, effective ratio).
func (f *FlightRun) WriteTimeline(w io.Writer) error {
	return metrics.WriteSeriesCSV(w, []*metrics.Series{f.Wasted, f.Ratio})
}

// WriteProm renders the replay's run.* registry in Prometheus text
// exposition format.
func (f *FlightRun) WriteProm(w io.Writer) error {
	return metrics.WriteProm(w, f.Registry)
}
