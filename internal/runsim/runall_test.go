package runsim

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// burstySchedule draws a seeded schedule of failure bursts: each burst
// hits up to four distinct ranks, each either at the same instant as the
// one before, within seconds of it, or minutes later — while the
// previous group is still recovering. About half the failures are
// hardware, so bursts often take out a whole replica group.
func burstySchedule(t *testing.T, rng *rand.Rand, machines int, horizon simclock.Duration) failure.Schedule {
	t.Helper()
	var fs failure.Schedule
	for at := 0.0; ; {
		at += rng.ExpFloat64() * 4 * 3600
		if at >= float64(horizon) {
			break
		}
		for k, rank := range rng.Perm(machines)[:1+rng.Intn(4)] {
			if k > 0 {
				switch rng.Intn(3) {
				case 1:
					at += rng.Float64() * 10
				case 2:
					at += rng.Float64() * 900
				}
			}
			kind := cluster.SoftwareFailed
			if rng.Intn(2) == 0 {
				kind = cluster.HardwareFailed
			}
			fs = append(fs, failure.Event{At: simclock.Time(at), Rank: rank, Kind: kind})
		}
	}
	slices.SortStableFunc(fs, func(a, b failure.Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Rank, b.Rank))
	})
	fs = slices.CompactFunc(fs, func(a, b failure.Event) bool { return a.At == b.At && a.Rank == b.Rank })
	if err := fs.Validate(machines); err != nil {
		t.Fatal(err)
	}
	return fs
}

// normalized maps an empty sample list to nil: the reference walk
// appends to nil, and Run hands back a pooled empty slice.
func normalized(r Result) Result {
	if len(r.WastedSamples) == 0 {
		r.WastedSamples = nil
	}
	return r
}

// RunAll shares each failure group's scan across the runs that group the
// schedule alike, so it must reproduce every run exactly as Run and the
// reference walk do on their own: over seeded bursty schedules, with
// runs that share a pass and a placement, share a pass over distinct
// placements, and sit in passes of their own (window 0 against 10 s, a
// replacement delay, a shorter horizon), all in one call. Each run's
// run.* exposition must match its separate run's byte for byte.
func TestRunAllMatchesSeparateRuns(t *testing.T) {
	const machines = 16
	horizon := 6 * day
	straw, high, gem := specs(t, machines)
	// A second CPU-memory solution with its own interval and lag, so two
	// specs in one pass recover over the same placement.
	gem2 := gem
	gem2.Name, gem2.Interval, gem2.CompletionLag = "GEMINI-slow", 4*gem.Interval, 4*gem.CompletionLag
	shared := placement.MustMixed(machines, 2)
	// wide survives bursts that sink shared's two-machine groups.
	wide := placement.MustMixed(machines, 4)
	window := 10 * simclock.Second
	base := func(spec baselines.Spec, pl *placement.Placement, w simclock.Duration) Config {
		return Config{Spec: spec, Placement: pl, Machines: machines, Horizon: horizon, SimultaneityWindow: w}
	}
	shorter := base(gem, shared, window)
	shorter.Horizon = 4 * day
	delayed := base(gem, wide, window)
	delayed.ReplacementDelay = 20 * simclock.Minute
	template := []Config{
		base(gem, shared, 0),
		base(gem, shared, window),
		base(high, nil, window),
		base(gem2, shared, window),
		base(gem, wide, window),
		base(straw, nil, 0),
		base(high, nil, 0),
		shorter,
		delayed,
		base(straw, nil, window),
	}
	var peer, remote, windows, places int
	for seed := int64(1); seed <= 40; seed++ {
		fs := burstySchedule(t, rand.New(rand.NewSource(seed)), machines, horizon)
		cfgs := slices.Clone(template)
		for k := range cfgs {
			cfgs[k].Failures = fs
			cfgs[k].Obs.Metrics = metrics.NewRegistry()
		}
		out := make([]*Result, len(cfgs))
		if err := RunAll(cfgs, out); err != nil {
			t.Fatal(err)
		}
		for k, cfg := range cfgs {
			got := out[k]
			what := func() string {
				return cfg.Spec.Name + " window " + cfg.SimultaneityWindow.String()
			}
			alone := cfg
			alone.Obs.Metrics = metrics.NewRegistry()
			want := MustRun(alone)
			if !reflect.DeepEqual(normalized(*got), normalized(*want)) {
				t.Fatalf("seed %d run %d (%s): RunAll differs from Run:\nRunAll %+v\nRun    %+v", seed, k, what(), *got, *want)
			}
			if ref := referenceRun(cfg); !reflect.DeepEqual(normalized(*got), normalized(ref)) {
				t.Fatalf("seed %d run %d (%s): RunAll differs from the reference walk:\nRunAll    %+v\nreference %+v", seed, k, what(), *got, ref)
			}
			var a, b bytes.Buffer
			if err := metrics.WriteProm(&a, cfg.Obs.Metrics); err != nil {
				t.Fatal(err)
			}
			if err := metrics.WriteProm(&b, alone.Obs.Metrics); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d run %d (%s): run.* exposition differs:\nRunAll\n%s\nRun\n%s", seed, k, what(), a.String(), b.String())
			}
			if cfg.Spec.UsesCPUMemory {
				peer += got.FromPeer
				remote += got.FromRemote
			}
		}
		// The cases a shared pass could get wrong must actually occur:
		// the two windows group GEMINI's failures differently, and the
		// two placements disagree on survival.
		if !reflect.DeepEqual(normalized(*out[0]), normalized(*out[1])) {
			windows++
		}
		if out[1].FromRemote != out[4].FromRemote {
			places++
		}
	}
	if peer == 0 || remote == 0 {
		t.Fatalf("CPU-memory runs recovered %d times from a peer and %d from remote; both paths must be exercised", peer, remote)
	}
	if windows == 0 || places == 0 {
		t.Fatalf("windows changed %d runs and placements %d; the shared-pass keys went unchecked", windows, places)
	}
}

// RunAll rejects calls it cannot walk as one schedule, and an invalid
// run fails the whole call by its index and spec.
func TestRunAllRejections(t *testing.T) {
	straw, _, gem := specs(t, 16)
	pl := placement.MustMixed(16, 2)
	fs := softwareFailures(t, 16, 4, 2*day)
	good := []Config{
		{Spec: gem, Placement: pl, Machines: 16, Failures: fs, Horizon: 2 * day},
		{Spec: straw, Machines: 16, Failures: fs, Horizon: 2 * day},
	}
	if err := RunAll(good, make([]*Result, 1)); err == nil {
		t.Error("RunAll accepted fewer results than runs")
	}
	if err := RunAll(nil, nil); err != nil {
		t.Errorf("RunAll over no runs: %v", err)
	}
	copied := slices.Clone(good)
	copied[1].Failures = slices.Clone(fs)
	if err := RunAll(copied, make([]*Result, 2)); err == nil || !strings.Contains(err.Error(), "run 1") {
		t.Errorf("RunAll over two schedules returned %v, want an error naming run 1", err)
	}
	bad := slices.Clone(good)
	bad[1].Horizon = 0
	out := make([]*Result, 2)
	if err := RunAll(bad, out); err == nil || !strings.Contains(err.Error(), "run 1 (Strawman)") {
		t.Errorf("RunAll with an invalid run returned %v, want an error naming run 1 (Strawman)", err)
	}
	if out[0] != nil || out[1] != nil {
		t.Error("a failed RunAll stored results")
	}
}
