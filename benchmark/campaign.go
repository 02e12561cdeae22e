package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"math"
	"runtime"

	"gemini/internal/derive"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/runsim"
	"gemini/internal/scenario"
)

// The two campaign workloads share every layer but stress them
// differently; the reasons are in each file's header.
var (
	//go:embed workloads/smoke-1k.yaml
	smokeYAML []byte
	//go:embed workloads/chaos-10k.yaml
	chaosYAML []byte
)

// campaignInputs is a scenario file whose seed the benchmark replaces,
// as campaign -seed does.
type campaignInputs struct {
	yaml []byte
	seed int64
	// observed turns on aggregation, run records, the aggregated
	// Prometheus export, outlier ranking and flight-recorder replays.
	observed bool
	workers  int
	s        *scenario.Scenario
}

func newSmokeInputs(seed int64) (inputs, error) {
	return &campaignInputs{yaml: smokeYAML, seed: seed, workers: 1}, nil
}

func newChaosInputs(seed int64) (inputs, error) {
	return &campaignInputs{yaml: chaosYAML, seed: seed, observed: true, workers: min(2, runtime.NumCPU())}, nil
}

func (in *campaignInputs) parse() error {
	s, err := scenario.Parse(in.yaml)
	if err != nil {
		return err
	}
	s.Seed = in.seed
	in.s = s
	return nil
}

func (in *campaignInputs) compile() (instance, error) {
	c, err := in.s.Compile()
	if err != nil {
		return nil, err
	}
	return &campaign{c: c, observed: in.observed, workers: in.workers}, nil
}

// campaign runs one scenario campaign per unit: RunCampaign, the JSON
// and HTML reports and the hash check; observed adds the aggregated
// Prometheus export, Outliers and two replays.
type campaign struct {
	c        *scenario.Compiled
	observed bool
	workers  int
	// hash is the first unit's report hash; every unit must reproduce it.
	hash string
	// last is the newest unit's report, for its decomposition.
	last  *scenario.Report
	stats map[string]float64
}

func (w *campaign) keys() []derive.Key { return []derive.Key{w.c.Job.Spec.CacheKey()} }

func (w *campaign) period() int { return 1 }

func (w *campaign) options(workers int) scenario.CampaignOptions {
	return scenario.CampaignOptions{Workers: workers, Aggregate: w.observed, RecordRuns: w.observed}
}

func (w *campaign) simSeconds() float64 {
	return float64(w.c.Scenario.Variations*len(w.c.Specs)) * w.c.Scenario.Horizon.Seconds()
}

func (w *campaign) digest() string { return w.hash }

func (w *campaign) model() map[string]float64 { return w.stats }

func (w *campaign) unit(i int, rec *recorder) error {
	rec.begin("scenario.campaign")
	rep, err := scenario.RunCampaign(context.Background(), w.c, w.options(w.workers))
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("scenario.json")
	js, err := rep.JSON()
	rec.end()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	rec.begin("scenario.html")
	err = scenario.WriteHTML(&buf, rep)
	rec.end()
	if err != nil {
		return err
	}
	if w.observed {
		rec.begin("scenario.prom")
		err = rep.WriteAggregatedProm(&buf)
		rec.end()
		if err != nil {
			return err
		}
	}
	rec.note("scenario.report_bytes", float64(len(js)+buf.Len()))
	rec.begin("scenario.hash")
	h := rep.ComputeHash()
	rec.end()
	if h != rep.Hash {
		return fmt.Errorf("report hash %s does not verify (recomputed %s)", rep.Hash, h)
	}
	if w.hash == "" {
		w.hash = h
	} else if h != w.hash {
		return fmt.Errorf("report hash %s differs from the first unit's %s", h, w.hash)
	}
	w.last = rep
	if !w.observed {
		return nil
	}

	rec.begin("scenario.outliers")
	worst, err := scenario.Outliers(rep, "wasted", 2)
	rec.end()
	if err != nil {
		return err
	}
	if len(worst) != 2 {
		return fmt.Errorf("Outliers returned %d runs, want 2", len(worst))
	}
	rec.begin("scenario.replay")
	defer rec.end()
	events := 0
	for _, r := range worst {
		fr, err := w.c.Replay(r)
		if err != nil {
			return err
		}
		if err := fr.WriteTrace(io.Discard); err != nil {
			return err
		}
		if err := fr.WriteTimeline(io.Discard); err != nil {
			return err
		}
		if err := fr.WriteProm(io.Discard); err != nil {
			return err
		}
		for _, tk := range fr.Tracer.Tracks() {
			events += len(tk.Spans()) + len(tk.Instants()) + len(tk.Samples())
		}
	}
	rec.note("trace.events", float64(events))
	return nil
}

// check compares the report at one worker with the unit's worker count:
// they must hash the same.
func (w *campaign) check() error {
	if w.workers == 1 {
		return nil
	}
	rep, err := scenario.RunCampaign(context.Background(), w.c, w.options(1))
	if err != nil {
		return err
	}
	if rep.Hash != w.hash {
		return fmt.Errorf("report at workers=1 hashes %s, at workers=%d %s", rep.Hash, w.workers, w.hash)
	}
	return nil
}

// runOutcome is one (variation, spec) run's scalar result.
type runOutcome struct {
	ratio, wasted, lost, down, stall float64
	failures, local, peer, remote    int
}

// decompose replays the unit's campaign one layer at a time — every
// variation's failure schedule, then every run's walk, then (observed)
// the registry merges and a one-worker campaign — and checks the
// pieces against the unit's report.
func (w *campaign) decompose(i int, rec *recorder) error {
	c, rep := w.c, w.last
	s := c.Scenario
	nspecs := len(c.Specs)

	rec.begin("failure.schedule")
	scheds := make([]failure.Schedule, s.Variations)
	events := 0
	var err error
	for v := range scheds {
		if scheds[v], err = c.FailureSchedule(v); err != nil {
			break
		}
		events += len(scheds[v])
	}
	rec.end()
	if err != nil {
		return err
	}

	walk := "runsim.walk"
	if w.observed {
		walk = "runsim.observed_walk"
	}
	runs := make([]runOutcome, 0, s.Variations*nspecs)
	var regs []*metrics.Registry
	rec.begin(walk)
	for _, fs := range scheds {
		for _, spec := range c.Specs {
			cfg := runsim.Config{
				Spec:               spec,
				Machines:           s.Job.Machines,
				Failures:           fs,
				Horizon:            s.Horizon,
				ReplacementDelay:   s.Run.ReplacementDelay,
				SimultaneityWindow: s.Run.SimultaneityWindow,
			}
			if spec.UsesCPUMemory {
				cfg.Placement = c.Job.Placement
			}
			if w.observed {
				cfg.Obs.Metrics = metrics.NewRegistry()
				regs = append(regs, cfg.Obs.Metrics)
			}
			var res *runsim.Result
			if res, err = runsim.Run(cfg); err != nil {
				break
			}
			runs = append(runs, runOutcome{
				ratio: res.EffectiveRatio, wasted: res.TotalWasted.Seconds(),
				lost: res.TotalLost.Seconds(), down: res.TotalDowntime.Seconds(), stall: res.StallTime.Seconds(),
				failures: res.Failures, local: res.FromLocal, peer: res.FromPeer, remote: res.FromRemote,
			})
			res.Release()
		}
		if err != nil {
			break
		}
	}
	walked := rec.end()
	if err != nil {
		return err
	}
	residual := rec.value("scenario.campaign_s") - rec.value("failure.schedule_s") - walked

	if w.observed {
		rec.begin("metrics.merge")
		agg := metrics.NewRegistry()
		perSpec := make([]*metrics.Registry, nspecs)
		for si := range perSpec {
			perSpec[si] = metrics.NewRegistry()
		}
		for k, reg := range regs {
			agg.Merge(reg)
			perSpec[k%nspecs].Merge(reg)
		}
		merged := rec.end()
		rec.note("metrics.merges", float64(2*len(regs)))
		var mine, theirs bytes.Buffer
		if err := metrics.WriteProm(&mine, agg); err != nil {
			return err
		}
		if err := rep.WriteAggregatedProm(&theirs); err != nil {
			return err
		}
		if !bytes.Equal(mine.Bytes(), theirs.Bytes()) {
			return fmt.Errorf("merging the per-run registries does not reproduce the report's aggregated Prometheus export")
		}

		// The residual is taken at one worker, where the campaign's time
		// is the sum of its parts.
		rec.begin("scenario.campaign_w1")
		one, err := scenario.RunCampaign(context.Background(), c, w.options(1))
		serial := rec.end()
		if err != nil {
			return err
		}
		if one.Hash != rep.Hash {
			return fmt.Errorf("report at workers=1 hashes %s, at workers=%d %s", one.Hash, w.workers, rep.Hash)
		}
		rec.note("parallel.speedup", serial/rec.value("scenario.campaign_s"))
		residual = serial - rec.value("failure.schedule_s") - walked - merged
	}
	rec.note("scenario.reduce_s", residual)
	return w.checkRuns(rep, runs, events)
}

// checkRuns holds the decomposed runs to Eq. 1 and to the report: per
// run lost + downtime = wasted and ratio ∈ [0,1]; per spec the failure
// and recovery-source totals equal the report's; observed, every run
// equals its record exactly. It also files the workload's model
// statistics.
func (w *campaign) checkRuns(rep *scenario.Report, runs []runOutcome, events int) error {
	nspecs := len(w.c.Specs)
	totals := make([]scenario.SpecReport, nspecs)
	recoveries, inMemory := 0, 0
	ratioSum := 0.0
	for k, r := range runs {
		if math.Abs(r.lost+r.down-r.wasted) > 1e-9*math.Max(1, r.wasted) {
			return fmt.Errorf("run %d: lost %v + downtime %v != wasted %v", k, r.lost, r.down, r.wasted)
		}
		if r.ratio < 0 || r.ratio > 1 {
			return fmt.Errorf("run %d: effective ratio %v outside [0,1]", k, r.ratio)
		}
		t := &totals[k%nspecs]
		t.Failures += r.failures
		t.FromLocal += r.local
		t.FromPeer += r.peer
		t.FromRemote += r.remote
		recoveries += r.local + r.peer + r.remote
		inMemory += r.local + r.peer
		ratioSum += r.ratio
		if w.observed {
			rr := rep.Runs[k]
			if rr.EffectiveRatio != r.ratio || rr.WastedSeconds != r.wasted || rr.LostSeconds != r.lost ||
				rr.DowntimeSeconds != r.down || rr.StallSeconds != r.stall || rr.Failures != r.failures ||
				rr.FromLocal != r.local || rr.FromPeer != r.peer || rr.FromRemote != r.remote {
				return fmt.Errorf("run %d: decomposed walk %+v differs from the report's record %+v", k, r, rr)
			}
		}
	}
	for si, t := range totals {
		got := rep.Specs[si]
		if t.Failures != got.Failures || t.FromLocal != got.FromLocal || t.FromPeer != got.FromPeer || t.FromRemote != got.FromRemote {
			return fmt.Errorf("spec %s: decomposed totals failures=%d local=%d peer=%d remote=%d, report has %d/%d/%d/%d",
				got.Name, t.Failures, t.FromLocal, t.FromPeer, t.FromRemote,
				got.Failures, got.FromLocal, got.FromPeer, got.FromRemote)
		}
	}
	w.stats = map[string]float64{
		"failure.events":              float64(events),
		"runsim.runs":                 float64(len(runs)),
		"runsim.recoveries":           float64(recoveries),
		"runsim.in_memory_frac":       float64(inMemory) / math.Max(1, float64(recoveries)),
		"runsim.effective_ratio_mean": ratioSum / float64(len(runs)),
	}
	return nil
}
