package scenario

import (
	"strings"
	"testing"
)

// binderJob is a job section the binder accepts; the binder checks
// types and keys only, so the rest of a case needs nothing valid.
const binderJob = `"job": {"model": "GPT-2 100B", "instance": "p4d.24xlarge", "machines": 16}`

// Every binder error path, with its full text. The binder stops at the
// first failure in read order: root scalars, then job, fleet, failures,
// chaos, run and report, each section's own unknown keys before the next
// section, and the root's unknown keys last. JSON spells most cases
// exactly; YAML spells the infinities.
func TestBinderErrorText(t *testing.T) {
	cases := []struct{ name, src, want string }{
		// Shapes and the required job.
		{"root list", "- 1\n- 2\n", "scenario: scenario must be a mapping, got a list"},
		{"missing job", `{"name": "x"}`, "scenario: job is required"},
		{"null job", `{"job": null}`, "scenario: job must be a mapping, got nothing"},
		{"job number", `{"job": 5}`, "scenario: job must be a mapping, got a number"},
		{"fleet list", `{` + binderJob + `, "fleet": []}`, "scenario: fleet must be a mapping, got a list"},
		{"failures string", `{` + binderJob + `, "failures": "x"}`, "scenario: failures must be a mapping, got a string"},
		{"run boolean", `{` + binderJob + `, "run": true}`, "scenario: run must be a mapping, got a boolean"},
		{"report number", `{` + binderJob + `, "report": 1}`, "scenario: report must be a mapping, got a number"},
		{"templates mapping", `{` + binderJob + `, "fleet": {"templates": {}}}`, "scenario: fleet.templates must be a list, got a mapping"},
		{"template string", `{` + binderJob + `, "fleet": {"templates": ["p4d"]}}`, "scenario: fleet.templates[0] must be a mapping, got a string"},
		{"chaos mapping", `{` + binderJob + `, "chaos": {}}`, "scenario: chaos must be a list, got a mapping"},
		{"chaos null entry", `{` + binderJob + `, "chaos": [{}, null]}`, "scenario: chaos[1] must be a mapping, got nothing"},

		// Accessor type errors.
		{"string", `{"name": 5}`, "scenario: scenario.name must be a string, got a number"},
		{"string list-valued", `{` + binderJob + `, "report": {"html": ["a"]}}`, "scenario: report.html must be a string, got a list"},
		{"integer fraction", `{"seed": 1.5}`, "scenario: scenario.seed must be an integer, got 1.5"},
		{"integer string", `{"variations": "many"}`, "scenario: scenario.variations must be an integer, got many"},
		{"integer boolean", `{"job": {"machines": true}}`, "scenario: job.machines must be an integer, got true"},
		{"number", `{"job": {"remote_gbps": "fast"}}`, "scenario: job.remote_gbps must be a number, got a string"},
		{"number infinite", "job:\n  remote_gbps: inf\n", "scenario: job.remote_gbps must be a finite number, got +Inf"},
		{"template weight", `{` + binderJob + `, "fleet": {"templates": [{"weight": "x"}]}}`, "scenario: fleet.templates[0].weight must be a number, got a string"},
		{"duration boolean", `{"horizon": true}`, `scenario: scenario.horizon must be a duration (number of seconds or e.g. "12h"), got a boolean`},
		{"duration infinite", "horizon: inf\n", "scenario: scenario.horizon must be a finite number, got +Inf"},
		{"duration overflows", `{"horizon": "1` + strings.Repeat("0", 304) + `d"}`, "scenario: scenario.horizon must be a finite number, got +Inf"},
		{"duration unit", `{"horizon": "10parsecs"}`, `scenario: scenario.horizon: bad duration "10parsecs" (units: d h m s ms)`},
		{"duration number", `{"horizon": "d"}`, `scenario: scenario.horizon: bad duration "d"`},
		{"duration empty", `{"horizon": " "}`, "scenario: scenario.horizon: empty duration"},
		{"chaos duration", `{` + binderJob + `, "chaos": [{"at": "soon"}]}`, `scenario: chaos[0].at: bad duration "soon"`},
		{"string list", `{` + binderJob + `, "run": {"specs": "gemini"}}`, "scenario: run.specs must be a list of strings, got a string"},
		{"string list entry", `{` + binderJob + `, "run": {"specs": ["gemini", 3]}}`, "scenario: run.specs entries must be strings, got a number"},
		{"integer list", `{` + binderJob + `, "chaos": [{"ranks": 3}]}`, "scenario: chaos[0].ranks must be a list of integers, got a number"},
		{"integer list entry", `{` + binderJob + `, "chaos": [{"ranks": [1, 2.5]}]}`, "scenario: chaos[0].ranks entries must be integers, got 2.5"},

		// Weights.
		{"weights list", `{` + binderJob + `, "fleet": {"regions": [1]}}`, "scenario: fleet.regions must be a mapping of name: weight, got a list"},
		{"weights entry", `{` + binderJob + `, "fleet": {"providers": {"aws": "x"}}}`, "scenario: fleet.providers[aws] must be a number, got a string"},
		{"weights infinite", "job:\n  machines: 1\nfleet:\n  regions:\n    us-east-1: inf\n", "scenario: fleet.regions[us-east-1] must be a finite number, got +Inf"},

		// Unknown keys, the alphabetically first of several.
		{"unknown root key", `{` + binderJob + `, "zeta": 1, "bogus": 1}`, `scenario: unknown key "bogus" under scenario`},
		{"unknown empty key", `{` + binderJob + `, "": 1}`, `scenario: unknown key "" under scenario`},
		{"unknown job key", `{"job": {"gpus": 8, "cpus": 2}}`, `scenario: unknown key "cpus" under job`},
		{"unknown fleet key", `{` + binderJob + `, "fleet": {"zones": {}}}`, `scenario: unknown key "zones" under fleet`},
		{"unknown template key", `{` + binderJob + `, "fleet": {"templates": [{"instance": "p4d.24xlarge", "cost": 1}]}}`, `scenario: unknown key "cost" under fleet.templates[0]`},
		{"unknown chaos key", `{` + binderJob + `, "chaos": [{"kind": "crash", "bogus": 1}]}`, `scenario: unknown key "bogus" under chaos[0]`},

		// Chaos entries.
		{"negative rank", `{` + binderJob + `, "chaos": [{"kind": "crash", "rank": -1}]}`, "scenario: chaos[0].rank must be ≥ 0, got -1"},
		{"negative rank, unknown kind", `{` + binderJob + `, "chaos": [{"kind": "meteor", "rank": -2}]}`, "scenario: chaos[0].rank must be ≥ 0, got -2"},
		{"stray field", `{` + binderJob + `, "chaos": [{"kind": "kv-outage", "duration": "1m", "rank": 3}]}`, "scenario: chaos[0].rank does not apply to kv-outage"},
		{"stray fields", `{` + binderJob + `, "chaos": [{"kind": "lease-jitter", "state": "hardware", "factor": 0.5}]}`, "scenario: chaos[0].factor does not apply to lease-jitter"},
		{"stray after a good entry", `{` + binderJob + `, "chaos": [{"kind": "kv-outage", "duration": "1m"}, {"kind": "crash", "rank": 1, "jitter": "1s"}]}`, "scenario: chaos[1].jitter does not apply to crash"},

		// The first failure in read order wins.
		{"root scalar before job", `{"name": 5, "job": 3}`, "scenario: scenario.name must be a string, got a number"},
		{"job keys before fleet", `{"job": {"gpus": 1}, "fleet": 3}`, `scenario: unknown key "gpus" under job`},
		{"fleet before failures", `{` + binderJob + `, "fleet": {"regions": 1}, "failures": 2}`, "scenario: fleet.regions must be a mapping of name: weight, got a number"},
		{"section before root keys", `{` + binderJob + `, "bogus": 1, "run": 3}`, "scenario: run must be a mapping, got a number"},
		{"entry keys before stray fields", `{` + binderJob + `, "chaos": [{"kind": "kv-outage", "rank": 1, "zz": 1}]}`, `scenario: unknown key "zz" under chaos[0]`},
		{"earlier entry first", `{` + binderJob + `, "chaos": [{"kind": "crash", "rank": -1}, 7]}`, "scenario: chaos[0].rank must be ≥ 0, got -1"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error\n  %v\nwant\n  %s", tc.name, err, tc.want)
		}
	}
}

// A fleet weight mapping with several bad entries names the
// alphabetically first, on every parse: the binder once walked the raw
// map, so the entry it named changed with map iteration order.
func TestWeightErrorsDeterministic(t *testing.T) {
	for _, key := range []string{"regions", "providers"} {
		src := "job:\n  machines: 1\nfleet:\n  " + key + ":\n    c: z\n    a: inf\n    b: y\n"
		want := "scenario: fleet." + key + "[a] must be a finite number, got +Inf"
		for i := 0; i < 200; i++ {
			if _, err := Parse([]byte(src)); err == nil || err.Error() != want {
				t.Fatalf("%s, parse %d: error %v, want %s", key, i, err, want)
			}
		}
	}
}
