package runsim

import (
	"fmt"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

const day = simclock.Duration(24 * 3600)

func observedRun(t *testing.T, obs Observer) *Result {
	t.Helper()
	_, _, gem := specs(t, 16)
	cfg := Config{
		Spec:      gem,
		Placement: placement.MustMixed(16, 2),
		Machines:  16,
		Failures:  softwareFailures(t, 16, 8, 10*day),
		Horizon:   10 * day,
		Obs:       obs,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The flight-recorder contract: attaching taps never changes the walk.
func TestObserverIsPure(t *testing.T) {
	plain := observedRun(t, Observer{})
	observed := observedRun(t, Observer{
		Tracer:  trace.NewTracer(nil),
		Metrics: metrics.NewRegistry(),
		Wasted:  metrics.NewSeries("wasted", 4096),
		Ratio:   metrics.NewSeries("ratio", 4096),
	})
	// Compare everything but the (pooled) sample slices, which hold the
	// same values in fresh backing arrays.
	p, o := *plain, *observed
	if len(p.WastedSamples) != len(o.WastedSamples) {
		t.Fatalf("sample counts diverged: %d vs %d", len(p.WastedSamples), len(o.WastedSamples))
	}
	for i := range p.WastedSamples {
		if p.WastedSamples[i] != o.WastedSamples[i] {
			t.Fatalf("sample %d diverged: %v vs %v", i, p.WastedSamples[i], o.WastedSamples[i])
		}
	}
	p.WastedSamples, o.WastedSamples = nil, nil
	if got, want := fmt.Sprintf("%+v", o), fmt.Sprintf("%+v", p); got != want {
		t.Fatalf("observed run diverged:\n%s\nvs\n%s", got, want)
	}
}

func TestObserverMetricsMatchResult(t *testing.T) {
	reg := metrics.NewRegistry()
	res := observedRun(t, Observer{Metrics: reg})
	if res.Failures == 0 {
		t.Fatal("fixture produced no failures")
	}
	cs := reg.Snapshot()
	recoveries := res.FromLocal + res.FromPeer + res.FromRemote
	for name, want := range map[string]float64{
		"run.failures":             float64(res.Failures),
		"run.recoveries":           float64(recoveries),
		"run.from_local":           float64(res.FromLocal),
		"run.from_peer":            float64(res.FromPeer),
		"run.from_remote":          float64(res.FromRemote),
		"run.wasted_seconds.count": float64(recoveries),
		"run.effective_ratio.mean": res.EffectiveRatio,
		"run.stall_seconds.mean":   res.StallTime.Seconds(),
	} {
		if got, ok := cs.Get(name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
	// The histogram sums reproduce the scalar totals exactly: the taps
	// observe the same float adds the walk performs.
	var wastedSum float64
	reg.Visit(func(name string, _ *metrics.CounterVar, _ *metrics.Gauge, h *metrics.Histogram) {
		if name == "run.wasted_seconds" {
			wastedSum = h.Sum()
		}
	})
	if want := res.TotalWasted.Seconds(); wastedSum != want {
		t.Errorf("run.wasted_seconds sum = %v, want %v", wastedSum, want)
	}
}

// The run.* counters land once per run, from its own Result. Over a
// RunAll of three specs in two passes (two replacement delays), on a
// schedule with a simultaneous group and a failure that lands during
// the group's recovery, every run's registry must match its Result and
// count its recoveries, and a traced run must still mark every failure
// event.
func TestObserverCountersPerRunInRunAll(t *testing.T) {
	const machines = 16
	straw, high, gem := specs(t, machines)
	window := 10 * simclock.Second
	const hour = simclock.Time(3600)
	fs := failure.Schedule{
		// A simultaneous group that loses a whole GEMINI replica group.
		{At: hour, Rank: 0, Kind: cluster.HardwareFailed},
		{At: hour, Rank: 1, Kind: cluster.HardwareFailed},
		{At: hour + 5, Rank: 7, Kind: cluster.SoftwareFailed},
		// Past the window but inside the group's recovery.
		{At: hour + 120, Rank: 3, Kind: cluster.SoftwareFailed},
		{At: 10 * hour, Rank: 9, Kind: cluster.HardwareFailed},
		{At: 20 * hour, Rank: 4, Kind: cluster.SoftwareFailed},
	}
	var cfgs []Config
	for _, delay := range []simclock.Duration{0, 20 * simclock.Minute} {
		for _, spec := range []baselines.Spec{straw, high, gem} {
			for src := baselines.FromLocal; src <= baselines.FromRemote; src++ {
				if down := spec.Phases(src, 0).Total(); down <= 120*simclock.Second {
					t.Fatalf("%s recovers from %v in %v; the hour+120 s failure would not land during a recovery", spec.Name, src, down)
				}
			}
			cfg := Config{
				Spec: spec, Machines: machines, Failures: fs, Horizon: 2 * day,
				ReplacementDelay: delay, SimultaneityWindow: window,
				Obs: Observer{Metrics: metrics.NewRegistry()},
			}
			if spec.UsesCPUMemory {
				cfg.Placement = placement.MustMixed(machines, 2)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	tr := trace.NewTracer(nil)
	cfgs[len(cfgs)-1].Obs.Tracer = tr
	out := make([]*Result, len(cfgs))
	if err := RunAll(cfgs, out); err != nil {
		t.Fatal(err)
	}
	for k, cfg := range cfgs {
		res := out[k]
		what := fmt.Sprintf("run %d (%s, delay %v)", k, cfg.Spec.Name, cfg.ReplacementDelay)
		recoveries := res.FromLocal + res.FromPeer + res.FromRemote
		if res.Failures != len(fs) || recoveries != 4 {
			t.Fatalf("%s: %d failures and %d recoveries, want %d and 4", what, res.Failures, recoveries, len(fs))
		}
		cs := cfg.Obs.Metrics.Snapshot()
		for name, want := range map[string]float64{
			"run.failures":               float64(res.Failures),
			"run.recoveries":             float64(recoveries),
			"run.from_local":             float64(res.FromLocal),
			"run.from_peer":              float64(res.FromPeer),
			"run.from_remote":            float64(res.FromRemote),
			"run.wasted_seconds.count":   float64(recoveries),
			"run.lost_seconds.count":     float64(recoveries),
			"run.downtime_seconds.count": float64(recoveries),
			"run.effective_ratio.count":  1,
			"run.stall_seconds.count":    1,
		} {
			if got, ok := cs.Get(name); !ok || got != want {
				t.Errorf("%s: %s = %v (ok=%v), want %v", what, name, got, ok, want)
			}
		}
	}
	traced := out[len(out)-1]
	if traced.FromLocal == 0 || traced.FromPeer == 0 || traced.FromRemote == 0 {
		t.Fatalf("traced GEMINI run recovered %d/%d/%d times from local/peer/remote; every source must occur",
			traced.FromLocal, traced.FromPeer, traced.FromRemote)
	}
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("%d tracks, want 1", len(tracks))
	}
	if got := len(tracks[0].Instants()); got != len(fs) {
		t.Fatalf("traced run marked %d failure instants, want one per event (%d)", got, len(fs))
	}
}

func TestObserverTraceAndTimeline(t *testing.T) {
	tr := trace.NewTracer(nil)
	wasted := metrics.NewSeries("wasted_seconds", 4096)
	ratio := metrics.NewSeries("effective_ratio", 4096)
	res := observedRun(t, Observer{Tracer: tr, Wasted: wasted, Ratio: ratio})
	recoveries := res.FromLocal + res.FromPeer + res.FromRemote

	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("%d tracks, want 1", len(tracks))
	}
	tk := tracks[0]
	if tk.OpenSpans() != 0 {
		t.Fatalf("%d spans left open", tk.OpenSpans())
	}
	if got := len(tk.Spans()); got != recoveries {
		t.Fatalf("%d recovery spans, want %d", got, recoveries)
	}
	if got := len(tk.Instants()); got != res.Failures {
		t.Fatalf("%d failure instants, want %d", got, res.Failures)
	}
	if got := len(tk.Samples()); got != recoveries {
		t.Fatalf("%d counter samples, want %d", got, recoveries)
	}

	if wasted.Len() != recoveries || ratio.Len() != recoveries {
		t.Fatalf("timeline lengths %d/%d, want %d", wasted.Len(), ratio.Len(), recoveries)
	}
	// Resumption times are strictly increasing and wasted is cumulative.
	for i := 1; i < wasted.Len(); i++ {
		if wasted.Point(i).At <= wasted.Point(i-1).At {
			t.Fatalf("timeline time not strictly increasing at %d: %v then %v",
				i, wasted.Point(i-1).At, wasted.Point(i).At)
		}
		if wasted.Point(i).Value < wasted.Point(i-1).Value {
			t.Fatalf("cumulative wasted decreased at %d", i)
		}
	}
	if last := wasted.Point(wasted.Len() - 1); last.Value != res.TotalWasted.Seconds() {
		t.Fatalf("final cumulative wasted %v, want %v", last.Value, res.TotalWasted.Seconds())
	}
}
