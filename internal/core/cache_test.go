package core

import (
	"reflect"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/derive"
	"gemini/internal/failure"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
)

func cacheSpec() JobSpec {
	return JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16}
}

// Two jobs with the same cache key share one set of derived artifacts.
func TestNewJobSharesCachedArtifacts(t *testing.T) {
	a := MustNewJob(cacheSpec())
	// Faults/strategy/sinks are run configuration, not derivation inputs:
	// a spec differing only there must still collapse onto the same entry.
	spec := cacheSpec()
	spec.Strategy = "tiered"
	b := MustNewJob(spec)
	if a.Placement != b.Placement || a.Timeline != b.Timeline || a.Profile != b.Profile || a.Plan != b.Plan {
		t.Fatal("same-key jobs did not share cached artifacts")
	}
}

// The cache hands out the shared artifacts, equal to but distinct from
// a private build.
func TestSharedArtifactsMatchPrivateBuild(t *testing.T) {
	cached := MustNewJob(cacheSpec())
	private := privateJob(t)
	if cached.Placement == private.Placement || cached.Timeline == private.Timeline ||
		cached.Profile == private.Profile || cached.Plan == private.Plan {
		t.Fatal("a private build shares artifacts with the cache")
	}
	if !reflect.DeepEqual(cached.Profile, private.Profile) || !reflect.DeepEqual(cached.Plan, private.Plan) {
		t.Fatal("private derivation differs from the cached one")
	}
}

// privateJob is cacheSpec's job over a fresh derive.Build, bypassing the
// shared cache.
func privateJob(t *testing.T) *Job {
	t.Helper()
	spec := cacheSpec().withDefaults()
	art, err := derive.Build(spec.CacheKey())
	if err != nil {
		t.Fatal(err)
	}
	return newJob(spec, art)
}

// Cached and uncached jobs must produce bit-identical run results — the
// cache is a pure memoization, never a behavior change.
func TestCachedRunsBitIdenticalToUncached(t *testing.T) {
	cached := MustNewJob(cacheSpec())
	private := privateJob(t)

	for _, s := range []schedule.Scheme{schedule.SchemeGemini, schedule.SchemeBlocking} {
		rc, err := cached.ExecuteScheme(s)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := private.ExecuteScheme(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rc, rp) {
			t.Fatalf("scheme %v: cached executor result differs from uncached", s)
		}
	}

	horizon := 5 * simclock.Day
	fs, err := failure.FixedRate(16, 6, 0.5, horizon)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := simulateRun(cached, cached.GeminiSpec(), 16, fs, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := simulateRun(private, private.GeminiSpec(), 16, fs, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, sp) {
		t.Fatalf("cached simulation %+v differs from uncached %+v", sc, sp)
	}
}

// The immutability guard: running every consumer of the shared artifacts
// (executor, long-run simulator, live recovery system) must leave the
// cache-shared Timeline/Profile/Plan/Placement bit-identical to a fresh
// private build. A regression that mutates shared state in place fails
// here instead of corrupting concurrent campaigns.
func TestRunDoesNotMutateSharedArtifacts(t *testing.T) {
	job := MustNewJob(cacheSpec())
	pristine, err := derive.Build(cacheSpec().CacheKey())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := job.ExecuteScheme(schedule.SchemeGemini); err != nil {
		t.Fatal(err)
	}
	if _, err := job.ExecuteSchemeWithBuffers(schedule.SchemeGemini, 8*128e6, 2); err != nil {
		t.Fatal(err)
	}
	horizon := 3 * simclock.Day
	fs, err := failure.FixedRate(16, 8, 0.5, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulateRun(job, job.GeminiSpec(), 16, fs, horizon, 0); err != nil {
		t.Fatal(err)
	}
	engine, sys, err := job.RecoverySystem(cloud.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	iter := job.Timeline.Iteration
	engine.At(simclock.Time(2*iter+1), func() { sys.InjectFailure(3, cluster.HardwareFailed) })
	engine.Run(simclock.Time(20 * iter))

	if !reflect.DeepEqual(job.Timeline, pristine.Timeline) {
		t.Error("a run mutated the cache-shared Timeline")
	}
	if !reflect.DeepEqual(job.Profile, pristine.Profile) {
		t.Error("a run mutated the cache-shared Profile")
	}
	if !reflect.DeepEqual(job.Plan, pristine.Plan) {
		t.Error("a run mutated the cache-shared Plan")
	}
	if !reflect.DeepEqual(job.Placement, pristine.Placement) {
		t.Error("a run mutated the cache-shared Placement")
	}
}
