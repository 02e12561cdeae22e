package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gemini/internal/trace"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []specMetric
		defs []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.kind, i, m, d)
			}
		}
	}
}

// TestWorkloadsShort runs every workload for two units, untraced and
// traced, and checks the result line the command would print.
func TestWorkloadsShort(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, trace: traced, traceDir: dir, units: 2, setups: 1}
			o, err := run(cfg, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			res := report(&out, cfg, w, o)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, o.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.name, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, declared %q", w.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if o.digest == "" {
				t.Errorf("%s: empty result digest", w.name)
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				if issues, err := trace.Lint(data); err != nil || len(issues) > 0 {
					t.Errorf("%s: trace lint: %v %v", w.name, err, issues)
				}
			}
		}
	}
}

// TestDigestRepeats checks that a seed fixes the simulated results and
// that the seed reaches the seeded workloads.
func TestDigestRepeats(t *testing.T) {
	digest := func(w workload, seed int64) string {
		o, err := run(config{seed: seed, units: 1, setups: 1}, w)
		if err != nil || len(o.errs) > 0 {
			t.Fatalf("%s: %v %v", w.name, err, o.errs)
		}
		return o.digest
	}
	for _, name := range []string{"smoke-1k", "control-plane-16"} {
		w, _ := lookup(name)
		a, b, c := digest(w, 5), digest(w, 5), digest(w, 6)
		if a != b {
			t.Errorf("%s: seed 5 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %s", name, a)
		}
	}
}
