package scenario

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"gemini/internal/obs"
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
		// Campaigns walk only the runsim specs, so a strategy would change
		// no report number.
		{"job strategy", strings.Replace(smallYAML, "machines: 16", "machines: 16\n  strategy: adaptive", 1), `unknown key "strategy"`},
		{"bad model", strings.Replace(smallYAML, "GPT-2 100B", "GPT-9", 1), "job.model"},
		{"bad instance", strings.Replace(smallYAML, "p4d.24xlarge", "x1.enormous", 1), "job.instance"},
		{"zero machines", strings.Replace(smallYAML, "machines: 16", "machines: 0", 1), "machines"},
		{"bad spec name", strings.Replace(smallYAML, "strawman", "vaporware", 1), "vaporware"},
		{"duplicate spec", strings.Replace(smallYAML, "strawman]", "strawman, gemini]", 1), `run.specs lists "gemini" twice`},
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
		// An infinite rate is rejected where it is read, before the size
		// check could see it.
		{"fixed infinite rate", strings.Replace(fixed, "per_instance_per_day: 0.25", "per_day: +Inf", 1),
			[]string{"failures.per_day", "finite", "+Inf"}},
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

// YAML's inf parses to +Inf, which passes every "> 0" check; an
// infinite region weight once sent Compile's quota loop spinning. Each
// must be rejected by name, and promptly.
func TestInfiniteNumbersRejected(t *testing.T) {
	fleet := smallYAML + `
fleet:
  templates:
    - instance: p4d.24xlarge
      weight: 1
  regions:
    us-east-1: 1
    us-west-2: 1
`
	cases := []struct{ name, src, want string }{
		{"region weight", strings.Replace(fleet, "us-east-1: 1", "us-east-1: inf", 1), "fleet.regions[us-east-1]"},
		{"template weight", strings.Replace(fleet, "weight: 1", "weight: inf", 1), "fleet.templates[0].weight"},
		{"remote_gbps", strings.Replace(smallYAML, "replicas: 2", "replicas: 2\n  remote_gbps: inf", 1), "job.remote_gbps"},
	}
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() {
			s, err := Parse([]byte(tc.src))
			if err == nil {
				_, err = s.Compile()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "+Inf") {
				t.Errorf("%s: error %v, want one naming %s and +Inf", tc.name, err, tc.want)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: no error within 1s", tc.name)
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
		{"rank out of range", "  - at: 1h\n    kind: crash\n    rank: 99\n    state: software\n", "chaos[0].rank 99 out of range [0,16)"},
		{"ranks entry out of range", "  - at: 1h\n    kind: partition\n    ranks: [1, 16]\n    duration: 5m\n", "chaos[0].ranks[1] 16 out of range [0,16)"},
		{"negative ranks entry", "  - at: 1h\n    kind: straggler\n    ranks: [-2]\n    factor: 0.5\n    duration: 5m\n", "chaos[0].ranks[0] -2 out of range"},
		// An event at or past the horizon would never fire but would
		// still count in chaos_events; the negated check rejects +Inf too.
		{"at past horizon", "  - at: 3d\n    kind: crash\n    rank: 1\n    state: software\n", "chaos[0].at must be in [0, horizon 48.00h), got 72.00h"},
		{"at the horizon", "  - at: 2d\n    kind: crash\n    rank: 1\n    state: software\n", "chaos[0].at must be in [0, horizon 48.00h)"},
		{"at +Inf", "  - at: +Inf\n    kind: kv-outage\n    duration: 1m\n", "chaos[0].at"},
		{"negative at", "  - at: -1h\n    kind: kv-outage\n    duration: 1m\n", "chaos[0].at"},
		{"second entry past horizon", "  - at: 1h\n    kind: kv-outage\n    duration: 1m\n  - at: 5d\n    kind: kv-outage\n    duration: 1m\n", "chaos[1].at"},
		// A field the kind never reads is rejected by its path, not ignored.
		{"crash with duration", "  - at: 1h\n    kind: crash\n    rank: 1\n    state: software\n    duration: 5m\n", "chaos[0].duration does not apply to crash"},
		{"crash with factor", "  - at: 1h\n    kind: crash\n    rank: 1\n    state: software\n    factor: 0.5\n", "chaos[0].factor does not apply to crash"},
		{"crash with jitter", "  - at: 1h\n    kind: crash\n    rank: 1\n    state: software\n    jitter: 3s\n", "chaos[0].jitter does not apply to crash"},
		{"crash with max_ranks", "  - at: 1h\n    kind: crash\n    rank: 1\n    state: software\n    max_ranks: 2\n", "chaos[0].max_ranks does not apply to crash"},
		{"kv-outage with ranks", "  - at: 1h\n    kind: kv-outage\n    ranks: [1, 2]\n    duration: 1m\n", "chaos[0].ranks does not apply to kv-outage"},
		{"lease-jitter with duration", "  - at: 1h\n    kind: lease-jitter\n    jitter: 3s\n    duration: 5m\n", "chaos[0].duration does not apply to lease-jitter"},
		{"partition with state", "  - at: 1h\n    kind: partition\n    ranks: [1, 2]\n    duration: 5m\n    state: hardware\n", "chaos[0].state does not apply to partition"},
		{"straggler with jitter", "  - at: 1h\n    kind: straggler\n    ranks: [1]\n    factor: 0.5\n    duration: 5m\n    jitter: 3s\n", "chaos[0].jitter does not apply to straggler"},
		{"region-outage with ranks", "  - at: 1h\n    kind: region-outage\n    region: eu\n    state: hardware\n    ranks: [1]\n", "chaos[0].ranks does not apply to region-outage"},
		{"second entry with stray field", "  - at: 1h\n    kind: kv-outage\n    duration: 1m\n  - at: 2h\n    kind: lease-jitter\n    jitter: 3s\n    region: eu\n", "chaos[1].region does not apply to lease-jitter"},
		// The binder's -1 means "unset", so an explicit negative rank
		// must fail rather than vanish beside ranks.
		{"negative rank beside ranks", "  - at: 1h\n    kind: crash\n    rank: -3\n    ranks: [1]\n    state: software\n", "chaos[0].rank must be ≥ 0, got -3"},
		{"negative rank alone", "  - at: 1h\n    kind: crash\n    rank: -1\n    state: software\n", "chaos[0].rank must be ≥ 0, got -1"},
		// A repeated rank, within ranks or across rank and ranks, once
		// compiled to a "correlated" failure of one machine, and a
		// straggler on [1, 1] failed Compile as overlapping itself.
		{"repeated correlated rank", "  - at: 1h\n    kind: correlated-crash\n    ranks: [5, 5]\n    state: software\n", "chaos[0] (correlated-crash): names rank 5 twice"},
		{"rank repeated in ranks", "  - at: 1h\n    kind: correlated-crash\n    rank: 5\n    ranks: [5]\n    state: hardware\n", "chaos[0] (correlated-crash): names rank 5 twice"},
		{"repeated straggler rank", "  - at: 1h\n    kind: kv-outage\n    duration: 1m\n  - at: 2h\n    kind: straggler\n    ranks: [1, 1]\n    factor: 0.5\n    duration: 5m\n", "chaos[1] (straggler-start): names rank 1 twice"},
		{"repeated partition rank", "  - at: 1h\n    kind: partition\n    rank: 2\n    ranks: [2, 3]\n    duration: 5m\n", "chaos[0] (partition-start): names rank 2 twice"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(withChaos(tc.entry)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := Parse([]byte(withChaos("  - at: 47h59m\n    kind: crash\n    rank: 1\n    state: software\n"))); err != nil {
		t.Errorf("chaos event just before the horizon rejected: %v", err)
	}
}

// TestChaosErrorsNameTheirEntry: Compile sorts the chaos events by
// time before validating the windows, so an error must name the
// chaos[i] entry the event came from, not its place in the sorted
// schedule. A rank beyond job.machines fails at Parse, naming the
// field.
func TestChaosErrorsNameTheirEntry(t *testing.T) {
	cases := []struct {
		name, entries, want string
		atParse             bool
	}{
		{"nested partition", `  - at: 2h
    kind: crash
    rank: 1
    state: software
  - at: 1h
    kind: partition
    ranks: [2]
    duration: 2h
  - at: 90m
    kind: partition
    ranks: [3]
    duration: 10m
`, "chaos[2] (partition-start): opens a partition inside another partition window", false},
		{"overlapping stragglers", `  - at: 3h
    kind: crash
    rank: 1
    state: software
  - at: 2h
    kind: straggler
    rank: 4
    factor: 0.5
    duration: 1h
  - at: 150m
    kind: straggler
    rank: 4
    factor: 0.5
    duration: 1h
`, "chaos[2] (straggler-start): degrades rank 4 inside another straggler window", false},
		{"overlapping kv outages", `  - at: 3h
    kind: crash
    rank: 1
    state: software
  - at: 2h
    kind: kv-outage
    duration: 1h
  - at: 150m
    kind: kv-outage
    duration: 1h
`, "chaos[2] (kv-outage): opens a KV outage inside another outage window", false},
		{"rank beyond the cluster", `  - at: 2h
    kind: kv-outage
    duration: 1h
  - at: 1h
    kind: crash
    rank: 99
    state: software
`, "chaos[1].rank 99 out of range [0,16)", true},
	}
	for _, tc := range cases {
		s, err := Parse([]byte(smallYAML + "\nchaos:\n" + tc.entries))
		if !tc.atParse {
			if err != nil {
				t.Errorf("%s: parse failed early: %v", tc.name, err)
				continue
			}
			_, err = s.Compile()
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

// smokeHash is the report hash of examples/scenarios/smoke-1k.yaml at its
// own width and seed; ci.sh pins the same value on the campaign CLI.
const smokeHash = "352980d25448928c30d66858cac44f4644e059fff2148565f8e6b55ca9739727"

// Cancelling a campaign stops it after the variations in flight, returns
// context.Canceled, and leaves the schedule, run and registry pools
// clean: the next run of the same Compiled still reproduces the pinned
// report, and an observed run still reproduces a fresh Compiled's JSON
// and aggregated Prometheus bytes, after a cancelled observed run (some
// registries merged and recycled, some abandoned mid-variation) and
// after a run whose spec fails validation.
func TestCampaignCancel(t *testing.T) {
	load := func() *Compiled {
		s, err := Load("../../examples/scenarios/smoke-1k.yaml")
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	observed := CampaignOptions{Workers: 2, Aggregate: true, RecordRuns: true}
	observedBytes := func(c *Compiled) string {
		rep, err := RunCampaign(context.Background(), c, observed)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := rep.WriteAggregatedProm(&prom); err != nil {
			t.Fatal(err)
		}
		return string(js) + prom.String()
	}
	want := observedBytes(load())
	c := load()

	const wide = 20000
	for _, opts := range []CampaignOptions{{Workers: 2}, observed} {
		ctx, cancel := context.WithCancel(context.Background())
		prog := obs.NewProgress()
		type outcome struct {
			rep *Report
			err error
		}
		out := make(chan outcome, 1)
		go func() {
			wideOpts := opts
			wideOpts.Variations, wideOpts.Progress = wide, prog
			rep, err := RunCampaign(ctx, c, wideOpts)
			out <- outcome{rep, err}
		}()
		for prog.Snapshot().DoneRuns == 0 {
			select {
			case got := <-out:
				t.Fatalf("aggregate=%v: campaign returned before any run finished: %v", opts.Aggregate, got.err)
			case <-time.After(100 * time.Microsecond):
			}
		}
		cancel()
		canceledAt := time.Now()
		var got outcome
		select {
		case got = <-out:
		case <-time.After(time.Minute):
			t.Fatalf("aggregate=%v: cancelled campaign did not return within a minute", opts.Aggregate)
		}
		latency := time.Since(canceledAt)
		if !errors.Is(got.err, context.Canceled) || got.rep != nil {
			t.Fatalf("aggregate=%v: cancelled campaign returned report %v, error %v; want context.Canceled", opts.Aggregate, got.rep != nil, got.err)
		}
		done := prog.Snapshot().DoneRuns
		if done >= wide/2 {
			t.Fatalf("aggregate=%v: cancelled campaign finished %d of %d variations", opts.Aggregate, done, wide)
		}

		start := time.Now()
		rep, err := RunCampaign(context.Background(), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		full := time.Since(start) * wide / time.Duration(c.Scenario.Variations)
		if !opts.Aggregate && rep.Hash != smokeHash {
			t.Fatalf("report hash after a cancelled run %s, want %s", rep.Hash, smokeHash)
		}
		if opts.Aggregate && observedBytes(c) != want {
			t.Fatal("observed report or aggregated exposition after a cancelled observed run differs from a fresh Compiled's")
		}
		t.Logf("aggregate=%v: cancel returned in %v after %d variations; the uncancelled run would take about %v", opts.Aggregate, latency, done, full)
		if latency > full/10 {
			t.Fatalf("aggregate=%v: cancel took %v, not well before the uncancelled run time of about %v", opts.Aggregate, latency, full)
		}
	}

	spec := c.Specs[1]
	c.Specs[1].Interval = -1
	if _, err := RunCampaign(context.Background(), c, observed); err == nil || !strings.Contains(err.Error(), "interval") {
		t.Fatalf("campaign with an invalid spec returned %v, want the spec's interval error", err)
	}
	c.Specs[1] = spec
	if observedBytes(c) != want {
		t.Fatal("observed report or aggregated exposition after a failed run differs from a fresh Compiled's")
	}
}

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

// job.remote_gbps is in gigabits per second: the paper's 20 Gbps FSx
// bandwidth, stated explicitly, compiles to the same specs as the
// default it stands for.
func TestRemoteGbpsIsGigabits(t *testing.T) {
	compile := func(src string) *Compiled {
		t.Helper()
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
	def := compile(smallYAML)
	fsx := compile(strings.Replace(smallYAML, "replicas: 2", "replicas: 2\n  remote_gbps: 20", 1))
	if fsx.Scenario.Job.RemoteGbps != 20 {
		t.Fatalf("remote_gbps parsed as %v, want 20", fsx.Scenario.Job.RemoteGbps)
	}
	if !reflect.DeepEqual(fsx.Specs, def.Specs) {
		t.Errorf("remote_gbps: 20 compiles to\n%+v\nwant the default's\n%+v", fsx.Specs, def.Specs)
	}
}
