package agent

import (
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/trace"
)

func gaugeValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Snapshot().Get(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

// The acceptance test for the health monitor: the gauges must visibly
// react to an injected failure — coverage collapses the moment a whole
// replica group's CPU memory is wiped, staleness spikes, and recovery
// restores both.
func TestHealthGaugesReactToFailure(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig()) // groups {0,1}, {2,3}
	reg := metrics.NewRegistry()
	f.sys.SetMetrics(reg)
	f.sys.SetRemoteEvery(10)
	f.sys.Start()

	// Steady state after 5 iterations: every shard fully replicated,
	// checkpoints fresh, remote tier never written (first commit at 10).
	f.engine.At(simclock.Time(5*iterTime+5), func() {
		if v := gaugeValue(t, reg, "health.replica_coverage"); v != 1 {
			t.Errorf("steady-state coverage %v, want 1", v)
		}
		if v := gaugeValue(t, reg, "health.min_replicas"); v != 2 {
			t.Errorf("steady-state min_replicas %v, want 2", v)
		}
		if v := gaugeValue(t, reg, "health.ckpt_staleness_local"); v != 0 {
			t.Errorf("steady-state local staleness %v, want 0", v)
		}
		if v := gaugeValue(t, reg, "health.ckpt_staleness_remote"); v != 5 {
			t.Errorf("remote staleness %v, want 5 (no remote commit yet)", v)
		}
	})

	// Kill the whole group {2, 3}: ranks 2 and 3 lose every in-memory
	// replica. The gauges must show it immediately, not at the next
	// iteration boundary.
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.At(simclock.Time(5*iterTime+11), func() {
		if v := gaugeValue(t, reg, "health.replica_coverage"); v != 0.5 {
			t.Errorf("coverage after group loss %v, want 0.5", v)
		}
		if v := gaugeValue(t, reg, "health.min_replicas"); v != 0 {
			t.Errorf("min_replicas after group loss %v, want 0", v)
		}
		if v := gaugeValue(t, reg, "health.ckpt_staleness_local"); v != 5 {
			t.Errorf("local staleness after group loss %v, want 5 (nothing survives)", v)
		}
	})

	f.engine.Run(simclock.Time(40 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	// Recovery reseeded every machine from the remote tier and training
	// resumed: coverage and redundancy are whole again.
	if v := gaugeValue(t, reg, "health.replica_coverage"); v != 1 {
		t.Errorf("post-recovery coverage %v, want 1", v)
	}
	if v := gaugeValue(t, reg, "health.min_replicas"); v != 2 {
		t.Errorf("post-recovery min_replicas %v, want 2", v)
	}
	if v := gaugeValue(t, reg, "health.recoveries"); v != 1 {
		t.Errorf("health.recoveries %v, want 1", v)
	}
	if v := gaugeValue(t, reg, "health.iteration"); v <= 0 {
		t.Errorf("health.iteration %v, want progress after recovery", v)
	}
	if v := gaugeValue(t, reg, "health.wasted_seconds.count"); v != 1 {
		t.Errorf("wasted_seconds count %v, want 1", v)
	}
}

// WastedEvents is the per-failure Eq. 1 ledger: with no remote commit
// yet, the whole-group failure at iteration 5 falls back to remote
// version 0, losing exactly 5 iterations of progress.
func TestWastedEventAccounting(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	reg := metrics.NewRegistry()
	f.sys.SetMetrics(reg)
	f.sys.SetRemoteEvery(10)
	f.sys.Start()
	injectAt := simclock.Time(5*iterTime + 10)
	f.engine.At(injectAt, func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(40 * iterTime))

	evs := f.sys.WastedEvents()
	if len(evs) != 1 {
		t.Fatalf("%d wasted events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Source != "remote" || ev.Version != 0 {
		t.Fatalf("source=%q version=%d, want remote fallback to version 0", ev.Source, ev.Version)
	}
	if len(ev.Ranks) != 2 {
		t.Fatalf("event ranks %v, want the 2 failed machines", ev.Ranks)
	}
	if ev.LostIterations != 5 || ev.TLost != 5*iterTime {
		t.Fatalf("lost %d iterations / %v, want 5 / %v", ev.LostIterations, ev.TLost, 5*iterTime)
	}
	// Detection follows the injection by at most lease TTL + checks.
	if ev.Detected < injectAt || ev.Detected.Sub(injectAt) > f.sys.opts.LeaseTTL+2*f.sys.opts.CheckInterval {
		t.Fatalf("Detected=%v, injection at %v", ev.Detected, injectAt)
	}
	if ev.Resumed <= ev.Detected {
		t.Fatalf("Resumed=%v not after Detected=%v", ev.Resumed, ev.Detected)
	}
	if ev.TRecovery != ev.Resumed.Sub(ev.Detected) {
		t.Fatalf("TRecovery=%v, want Resumed-Detected=%v", ev.TRecovery, ev.Resumed.Sub(ev.Detected))
	}
	// Downtime covers at least the kernel's serialize, retrieve and
	// warm-up phases.
	if ph := f.sys.spec.Phases(baselines.FromRemote, 0); ev.TRecovery < ph.Serialize+ph.Retrieve+ph.Warmup {
		t.Fatalf("TRecovery=%v below the serialize+retrieve+warmup floor %v", ev.TRecovery, ph.Serialize+ph.Retrieve+ph.Warmup)
	}
	if ev.Wasted() != ev.TLost+ev.TRecovery {
		t.Fatalf("Wasted()=%v, want TLost+TRecovery=%v", ev.Wasted(), ev.TLost+ev.TRecovery)
	}
	// The histograms saw the same event.
	if v := gaugeValue(t, reg, "health.wasted_seconds.max"); v != ev.Wasted().Seconds() {
		t.Fatalf("wasted_seconds.max=%v, want %v", v, ev.Wasted().Seconds())
	}
}

// The monitor is a pure observer and every named strategy is a pure
// policy: for each registered strategy, a run replays bit-identically
// across repeats, and attaching metrics, a sampling recorder, and a
// tracer must not move a single event. The failure ladder — two spaced
// software crashes then a hardware loss — gives the adaptive selector
// enough observations to switch policies mid-run, so its switching
// path is under the same determinism contract as the fixed policies.
func TestMonitoringDoesNotPerturbDeterminism(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			run := func(monitored bool) []trace.Instant {
				f := newFixture(t, 4, 2, cloud.DefaultConfig())
				f.sys.SetStrategy(strategy.MustNew(name))
				f.sys.SetRemoteEvery(10)
				if monitored {
					reg := metrics.NewRegistry()
					f.sys.SetMetrics(reg)
					f.sys.SetTracer(trace.NewTracer(nil))
					rec := metrics.NewRecorder(reg, 1024)
					rec.Watch("health.iteration", "health.replica_coverage",
						"health.ckpt_staleness_local", "health.recoveries")
					rec.Start(f.engine, 30*simclock.Second)
				}
				f.sys.Start()
				f.engine.At(simclock.Time(5*iterTime+10), func() {
					f.sys.InjectFailure(1, cluster.SoftwareFailed)
				})
				f.engine.At(simclock.Time(15*iterTime+10), func() {
					f.sys.InjectFailure(2, cluster.SoftwareFailed)
				})
				f.engine.At(simclock.Time(28*iterTime+10), func() {
					f.sys.InjectFailure(3, cluster.HardwareFailed)
				})
				f.engine.Run(simclock.Time(55 * iterTime))
				return f.log().Instants()
			}
			plain, repeat, monitored := run(false), run(false), run(true)
			if len(plain) != len(repeat) || len(plain) != len(monitored) {
				t.Fatalf("event counts differ: %d plain vs %d repeat vs %d monitored",
					len(plain), len(repeat), len(monitored))
			}
			switched := false
			for i := range plain {
				if plain[i] != repeat[i] {
					t.Fatalf("event %d differs across repeats:\n  first:  %+v\n  second: %+v", i, plain[i], repeat[i])
				}
				if plain[i] != monitored[i] {
					t.Fatalf("event %d differs:\n  plain:     %+v\n  monitored: %+v", i, plain[i], monitored[i])
				}
				if plain[i].Name == "strategy-switch" {
					switched = true
				}
			}
			if name == "adaptive" && !switched {
				t.Fatal("adaptive never switched: the mid-run switching path went untested")
			}
		})
	}
}

// Monitor-overhead benchmark pair for EXPERIMENTS.md: the same failure
// scenario with the health monitor off and on.
func benchmarkControlPlane(b *testing.B, monitor bool) {
	for i := 0; i < b.N; i++ {
		engine := simclock.NewEngine()
		f := benchFixture(b, engine)
		if monitor {
			reg := metrics.NewRegistry()
			f.SetMetrics(reg)
			rec := metrics.NewRecorder(reg, 1024)
			rec.Watch("health.iteration", "health.replica_coverage",
				"health.ckpt_staleness_local", "health.recoveries")
			rec.Start(engine, 30*simclock.Second)
		}
		f.Start()
		engine.At(simclock.Time(5*iterTime+10), func() {
			f.InjectFailure(2, cluster.HardwareFailed)
		})
		engine.Run(simclock.Time(30 * iterTime))
		if f.Recoveries() != 1 {
			b.Fatalf("%d recoveries, want 1", f.Recoveries())
		}
	}
}

func benchFixture(b *testing.B, engine *simclock.Engine) *System {
	b.Helper()
	clus := cluster.MustNew(4, cluster.MustInstance("p4d.24xlarge"))
	ck := ckpt.MustNewEngine(placement.MustMixed(4, 2), 75e9)
	op := cloud.MustNewOperator(engine, cloud.DefaultConfig())
	sys, err := NewSystem(engine, clus, ck, testSpec(4, 75e9), op, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sys.SetRemoteEvery(10)
	return sys
}

func BenchmarkControlPlaneMonitorOff(b *testing.B) { benchmarkControlPlane(b, false) }
func BenchmarkControlPlaneMonitorOn(b *testing.B)  { benchmarkControlPlane(b, true) }

// Per-strategy overhead benchmark pair for EXPERIMENTS.md: one
// sub-benchmark per registered strategy over the same failure ladder,
// so a policy whose planning work regresses (sparse walks every
// (owner, holder) pair per iteration, adaptive re-evaluates its rule
// at every boundary) shows up against the gemini baseline.
func BenchmarkControlPlaneStrategy(b *testing.B) {
	for _, name := range strategy.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine := simclock.NewEngine()
				f := benchFixture(b, engine)
				f.SetStrategy(strategy.MustNew(name))
				f.Start()
				engine.At(simclock.Time(5*iterTime+10), func() {
					f.InjectFailure(1, cluster.SoftwareFailed)
				})
				engine.At(simclock.Time(15*iterTime+10), func() {
					f.InjectFailure(2, cluster.HardwareFailed)
				})
				engine.Run(simclock.Time(30 * iterTime))
				if f.Recoveries() != 2 {
					b.Fatalf("%d recoveries, want 2", f.Recoveries())
				}
			}
		})
	}
}
