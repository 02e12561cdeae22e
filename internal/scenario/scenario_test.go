package scenario

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

const smallYAML = `
name: small
description: 16-machine test scenario
seed: 3
variations: 4
horizon: 2d

job:
  model: GPT-2 100B
  instance: p4d.24xlarge
  machines: 16
  replicas: 2

failures:
  kind: poisson
  per_instance_per_day: 0.25   # 4/day cluster-wide
  hardware_fraction: 0.5

run:
  specs: [gemini, highfreq, strawman]
  simultaneity_window: 10s
`

const smallJSON = `{
  "name": "small",
  "description": "16-machine test scenario",
  "seed": 3,
  "variations": 4,
  "horizon": "2d",
  "job": {"model": "GPT-2 100B", "instance": "p4d.24xlarge", "machines": 16, "replicas": 2},
  "failures": {"kind": "poisson", "per_instance_per_day": 0.25, "hardware_fraction": 0.5},
  "run": {"specs": ["gemini", "highfreq", "strawman"], "simultaneity_window": "10s"}
}`

func TestParseYAMLAndJSONAgree(t *testing.T) {
	fromYAML, err := Parse([]byte(smallYAML))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse([]byte(smallJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Fatalf("formats disagree:\nyaml: %+v\njson: %+v", fromYAML, fromJSON)
	}
	if fromYAML.Horizon != 2*simclock.Day {
		t.Errorf("horizon %v, want 2d", fromYAML.Horizon)
	}
	if fromYAML.Run.SimultaneityWindow != 10*simclock.Second {
		t.Errorf("window %v, want 10s", fromYAML.Run.SimultaneityWindow)
	}
}

func TestYAMLSubsetShapes(t *testing.T) {
	v, err := parseYAML([]byte(`
# comment
top: "quoted # not a comment"
block:
  inner: 3.5
  flag: true
  nothing: null
list:
  - 1
  - name: a
    w: 2
inline: [1, two, 'three']
`))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["top"] != "quoted # not a comment" {
		t.Errorf("quoted string: %v", m["top"])
	}
	block := m["block"].(map[string]any)
	if block["inner"] != 3.5 || block["flag"] != true || block["nothing"] != nil {
		t.Errorf("block scalars: %+v", block)
	}
	list := m["list"].([]any)
	if list[0] != float64(1) {
		t.Errorf("list[0]: %v", list[0])
	}
	item := list[1].(map[string]any)
	if item["name"] != "a" || item["w"] != float64(2) {
		t.Errorf("mapping list item: %+v", item)
	}
	inline := m["inline"].([]any)
	if inline[0] != float64(1) || inline[1] != "two" || inline[2] != "three" {
		t.Errorf("inline list: %+v", inline)
	}
}

func TestYAMLErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"tab indent", "a:\n\tb: 1", "tab indentation"},
		{"duplicate key", "a: 1\na: 2", "duplicate key"},
		{"misaligned key", "a:\n  b: 1\n   c: 2", "indentation"},
		{"list in mapping", "a: 1\n- b", "list item"},
		{"bare text", "just words here", "key"},
	}
	for _, tc := range cases {
		if _, err := parseYAML([]byte(tc.src)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestParseRejections(t *testing.T) {
	base := func(mutate string) string { return smallYAML + mutate }
	cases := []struct{ name, src, want string }{
		{"unknown top key", base("bogus: 1\n"), `unknown key "bogus"`},
		{"unknown job key", strings.Replace(smallYAML, "machines: 16", "machines: 16\n  gpus: 8", 1), `unknown key "gpus"`},
		{"bad model", strings.Replace(smallYAML, "GPT-2 100B", "GPT-9", 1), "job.model"},
		{"bad instance", strings.Replace(smallYAML, "p4d.24xlarge", "x1.enormous", 1), "job.instance"},
		{"zero machines", strings.Replace(smallYAML, "machines: 16", "machines: 0", 1), "machines"},
		{"bad spec name", strings.Replace(smallYAML, "strawman", "vaporware", 1), "vaporware"},
		{"bad kind", strings.Replace(smallYAML, "kind: poisson", "kind: weibull", 1), "failures.kind"},
		{"rate for wrong kind", strings.Replace(smallYAML, "per_instance_per_day: 0.25", "per_day: 4", 1), "per_day"},
		{"negative horizon", strings.Replace(smallYAML, "horizon: 2d", "horizon: -1d", 1), "horizon"},
		{"zero variations", strings.Replace(smallYAML, "variations: 4", "variations: 0", 1), "variations"},
		{"bad duration", strings.Replace(smallYAML, "10s", "10parsecs", 1), "duration"},
		{"missing name", strings.Replace(smallYAML, "name: small\n", "", 1), "name"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// One scenario line must not be able to ask a variation for billions of
// failures: Validate rejects a background model whose schedule would
// exceed failure.MaxExpectedEvents and names every field in the product.
func TestScheduleSizeLimit(t *testing.T) {
	fixed := strings.Replace(smallYAML, "kind: poisson", "kind: fixed", 1)
	cases := []struct {
		name, src string
		want      []string // nil: accepted
	}{
		{"shipped rates", smallYAML, nil},
		{"at the limit", strings.NewReplacer("machines: 16", "machines: 100000", "per_instance_per_day: 0.25", "per_instance_per_day: 1", "horizon: 2d", "horizon: 100d").Replace(smallYAML), nil},
		{"poisson machines", strings.Replace(smallYAML, "machines: 16", "machines: 100000000", 1),
			[]string{"job.machines", "failures.per_instance_per_day", "horizon", "limit"}},
		{"poisson horizon", strings.Replace(smallYAML, "horizon: 2d", "horizon: 10000000d", 1),
			[]string{"job.machines", "failures.per_instance_per_day", "horizon", "limit"}},
		{"fixed rate", strings.Replace(fixed, "per_instance_per_day: 0.25", "per_day: 1e9", 1),
			[]string{"failures.per_day", "horizon", "limit"}},
		// NaN fails every range comparison, so it must be rejected by
		// name rather than slip past as an empty schedule.
		{"poisson NaN rate", strings.Replace(smallYAML, "per_instance_per_day: 0.25", "per_instance_per_day: NaN", 1),
			[]string{"failures.per_instance_per_day", "NaN"}},
		{"fixed NaN rate", strings.Replace(fixed, "per_instance_per_day: 0.25", "per_day: NaN", 1),
			[]string{"failures.per_day", "NaN"}},
		{"fixed infinite rate", strings.Replace(fixed, "per_instance_per_day: 0.25", "per_day: +Inf", 1),
			[]string{"failures.per_day", "horizon", "limit"}},
		{"NaN hardware fraction", strings.Replace(smallYAML, "hardware_fraction: 0.5", "hardware_fraction: NaN", 1),
			[]string{"failures.hardware_fraction", "NaN"}},
		{"NaN horizon", strings.Replace(smallYAML, "horizon: 2d", "horizon: NaN", 1),
			[]string{"horizon", "NaN"}},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
	}
}

// NaN fails every ordered comparison, so a range check written as
// `x < 0` lets it through. Each numeric field must reject NaN by name.
func TestNaNFieldsRejected(t *testing.T) {
	fleet := smallYAML + `
fleet:
  templates:
    - instance: p4d.24xlarge
      weight: 1
  regions:
    us-east-1: 1
  providers:
    aws: 1
`
	withChaos := func(entry string) string { return smallYAML + "\nchaos:\n" + entry }
	cases := []struct{ name, src, want string }{
		{"job.remote_gbps", strings.Replace(smallYAML, "replicas: 2", "replicas: 2\n  remote_gbps: NaN", 1), "job.remote_gbps"},
		{"fleet template weight", strings.Replace(fleet, "weight: 1", "weight: NaN", 1), "fleet.templates[0]"},
		{"fleet region weight", strings.Replace(fleet, "us-east-1: 1", "us-east-1: NaN", 1), "fleet.regions[us-east-1]"},
		{"fleet provider weight", strings.Replace(fleet, "aws: 1", "aws: NaN", 1), "fleet.providers[aws]"},
		{"chaos at", withChaos("  - at: NaN\n    kind: kv-outage\n    duration: 1m\n"), "at must be"},
		{"chaos duration", withChaos("  - at: 1h\n    kind: kv-outage\n    duration: NaN\n"), "duration"},
		{"chaos factor", withChaos("  - at: 1h\n    kind: straggler\n    ranks: [1]\n    factor: NaN\n    duration: 5m\n"), "factor"},
		{"chaos jitter", withChaos("  - at: 1h\n    kind: lease-jitter\n    jitter: NaN\n"), "jitter"},
		{"run.replacement_delay", strings.Replace(smallYAML, "simultaneity_window: 10s", "simultaneity_window: 10s\n  replacement_delay: NaN", 1), "run.replacement_delay"},
		{"run.simultaneity_window", strings.Replace(smallYAML, "simultaneity_window: 10s", "simultaneity_window: NaN", 1), "run.simultaneity_window"},
	}
	if _, err := Parse([]byte(fleet)); err != nil {
		t.Fatalf("fleet base scenario rejected: %v", err)
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: NaN accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: error %q does not name %s and NaN", tc.name, err, tc.want)
		}
	}
}

// Size limits: each error names its field and its limit. runsim walks
// the horizon linearly, so a zero-rate 16-machine scenario at 1e9 days
// would validate and then run for minutes per variation.
func TestSizeLimits(t *testing.T) {
	zeroRate := strings.Replace(smallYAML, "kind: poisson\n  per_instance_per_day: 0.25   # 4/day cluster-wide\n  hardware_fraction: 0.5", "hardware_fraction: 0.5", 1)
	cases := []struct {
		name, src string
		want      []string // nil: accepted
	}{
		{"horizon at the limit", strings.Replace(zeroRate, "horizon: 2d", "horizon: 3650d", 1), nil},
		{"horizon past the limit", strings.Replace(zeroRate, "horizon: 2d", "horizon: 3651d", 1), []string{"horizon", "3650d"}},
		{"horizon 1e9 days", strings.Replace(zeroRate, "horizon: 2d", "horizon: 1000000000d", 1), []string{"horizon", "3650d"}},
		{"machines at the limit", strings.Replace(zeroRate, "machines: 16", "machines: 100000", 1), nil},
		{"machines past the limit", strings.Replace(zeroRate, "machines: 16", "machines: 100001", 1), []string{"job.machines", "100000"}},
		{"variations at the limit", strings.Replace(zeroRate, "variations: 4", "variations: 1000000", 1), nil},
		{"variations past the limit", strings.Replace(zeroRate, "variations: 4", "variations: 1000001", 1), []string{"variations", "1000000"}},
	}
	if zeroRate == smallYAML {
		t.Fatal("zero-rate scenario still carries the failure model")
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
	}

	// The campaign width override is held to the same limit.
	s, err := Parse([]byte(smallYAML))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCampaign(context.Background(), c, CampaignOptions{Variations: MaxVariations + 1})
	if err == nil || !strings.Contains(err.Error(), "variations") || !strings.Contains(err.Error(), "1000000") {
		t.Fatalf("variations override past the limit: error %v", err)
	}
}

func TestChaosValidation(t *testing.T) {
	withChaos := func(entry string) string {
		return smallYAML + "\nchaos:\n" + entry
	}
	cases := []struct{ name, entry, want string }{
		{"unknown kind", "  - at: 1h\n    kind: meteor\n", "unknown"},
		{"crash without rank", "  - at: 1h\n    kind: crash\n    state: software\n", "rank"},
		{"crash without state", "  - at: 1h\n    kind: crash\n    rank: 1\n", "state"},
		{"correlated needs two", "  - at: 1h\n    kind: correlated-crash\n    ranks: [1]\n    state: hardware\n", "2 ranks"},
		{"partition needs duration", "  - at: 1h\n    kind: partition\n    ranks: [1, 2]\n", "duration"},
		{"straggler factor", "  - at: 1h\n    kind: straggler\n    ranks: [1]\n    factor: 2\n    duration: 5m\n", "factor"},
		{"region without fleet", "  - at: 1h\n    kind: region-outage\n    region: mars\n    state: hardware\n", "not in the fleet"},
		{"rank out of range compiles", "  - at: 1h\n    kind: crash\n    rank: 99\n    state: software\n", ""},
	}
	for _, tc := range cases {
		s, err := Parse([]byte(withChaos(tc.entry)))
		if tc.want == "" {
			// Passes validation (rank bounds need the cluster size) but
			// must fail at compile, where chaos.Validate(n) sees n.
			if err != nil {
				t.Errorf("%s: parse failed early: %v", tc.name, err)
				continue
			}
			if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s: compile error %v, want rank-out-of-range", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDurationParsing(t *testing.T) {
	cases := map[string]simclock.Duration{
		"10d":   10 * simclock.Day,
		"36h":   36 * simclock.Hour,
		"5m":    5 * simclock.Minute,
		"30s":   30 * simclock.Second,
		"250ms": 250 * simclock.Millisecond,
		"1h30m": 90 * simclock.Minute,
		"1.5d":  36 * simclock.Hour,
	}
	for src, want := range cases {
		got, err := parseDuration(src)
		if err != nil || got != want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", src, got, err, want)
		}
	}
	for _, bad := range []string{"", "10", "h", "10x", "1h30"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) accepted", bad)
		}
	}
}

func fleetScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := Parse([]byte(`
name: fleet
seed: 11
variations: 2
horizon: 1d
job:
  model: GPT-2 100B
  machines: 100
  replicas: 2
fleet:
  templates:
    - instance: p4d.24xlarge
      weight: 3
    - instance: p3dn.24xlarge
      weight: 1
  regions:
    east: 0.5
    west: 0.3
    eu: 0.2
failures:
  kind: fixed
  per_day: 4
  hardware_fraction: 0.5
chaos:
  - at: 6h
    kind: region-outage
    region: eu
    state: hardware
    max_ranks: 8
run:
  specs: [gemini]
`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFleetAssignmentQuotasAndOutage(t *testing.T) {
	s := fleetScenario(t)
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Job sizes on the heaviest template.
	if c.Job.Spec.Instance != "p4d.24xlarge" {
		t.Errorf("job instance %s, want heaviest template", c.Job.Spec.Instance)
	}
	// Largest-remainder quotas are exact for these weights.
	counts := map[string]int{}
	for _, inst := range c.Fleet.Instances {
		counts[inst]++
	}
	if counts["p4d.24xlarge"] != 75 || counts["p3dn.24xlarge"] != 25 {
		t.Errorf("template quotas %v, want 75/25", counts)
	}
	regions := map[string]int{}
	for _, r := range c.Fleet.Regions {
		regions[r]++
	}
	if regions["east"] != 50 || regions["west"] != 30 || regions["eu"] != 20 {
		t.Errorf("region quotas %v, want 50/30/20", regions)
	}
	// The region outage compiled to a correlated crash capped at 8 of
	// eu's 20 ranks, all actually assigned to eu.
	if len(c.Chaos) != 1 || len(c.Chaos[0].Ranks) != 8 {
		t.Fatalf("chaos = %+v, want one 8-rank event", c.Chaos)
	}
	euRanks := map[int]bool{}
	for _, r := range c.Fleet.RegionRanks("eu") {
		euRanks[r] = true
	}
	for _, r := range c.Chaos[0].Ranks {
		if !euRanks[r] {
			t.Errorf("outage rank %d not assigned to eu", r)
		}
	}
	// Same seed → identical assignment; different seed → different.
	again, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Fleet, again.Fleet) {
		t.Error("fleet assignment not deterministic for a fixed seed")
	}
	s2 := fleetScenario(t)
	s2.Seed = 12
	other, err := s2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c.Fleet.Regions, other.Fleet.Regions) {
		t.Error("different seeds produced identical region shuffles")
	}
}

func TestFailureScheduleMergesChaos(t *testing.T) {
	s := fleetScenario(t)
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.FailureSchedule(0)
	if err != nil {
		t.Fatal(err)
	}
	// fixed 4/day over 1d = 4 background + 8 outage ranks.
	if len(fs) != 12 {
		t.Fatalf("schedule has %d events, want 12", len(fs))
	}
	if err := fs.Validate(100); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	s, err := Parse([]byte(smallYAML))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j8, err := r8.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker count changed the report:\n%s\nvs\n%s", j1, j8)
	}
	if r1.Hash == "" || r1.Hash != r1.ComputeHash() {
		t.Errorf("hash %q does not verify", r1.Hash)
	}
	var h1, h8 bytes.Buffer
	if err := WriteHTML(&h1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteHTML(&h8, r8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1.Bytes(), h8.Bytes()) {
		t.Error("worker count changed the HTML report")
	}
	if len(r1.Specs) != 3 || r1.Specs[0].Name != "GEMINI" {
		t.Fatalf("specs = %+v", r1.Specs)
	}
	if r1.Specs[0].EffectiveRatio.Mean <= 0 || r1.Specs[0].EffectiveRatio.Mean > 1 {
		t.Errorf("GEMINI ratio %v out of (0,1]", r1.Specs[0].EffectiveRatio.Mean)
	}
}

// TestParallelismReachesSpecs pins the baselines fix: the checkpoint
// cadence must follow the scenario's parallelism, not an assumed ZeRO-3
// timeline (pipeline iterations are much shorter at scale, so GEMINI's
// per-iteration interval shrinks with them).
func TestParallelismReachesSpecs(t *testing.T) {
	build := func(par string) *Compiled {
		t.Helper()
		src := strings.Replace(smallYAML, "replicas: 2", "replicas: 2\n  parallelism: "+par, 1)
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	zero := build("zero-3")
	pipe := build("pipeline-parallel")
	if zero.Job.Timeline.Iteration == pipe.Job.Timeline.Iteration {
		t.Fatal("parallelism did not change the timeline")
	}
	if zero.Specs[0].Interval == pipe.Specs[0].Interval {
		t.Error("parallelism did not reach the GEMINI spec's checkpoint interval")
	}
	if zero.Specs[0].Interval != simclock.Duration(zero.Job.Timeline.Iteration) {
		t.Errorf("GEMINI interval %v != iteration %v", zero.Specs[0].Interval, zero.Job.Timeline.Iteration)
	}
	if pipe.Specs[0].Interval != simclock.Duration(pipe.Job.Timeline.Iteration) {
		t.Errorf("pipeline GEMINI interval %v != iteration %v", pipe.Specs[0].Interval, pipe.Job.Timeline.Iteration)
	}
}
