package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"gemini/internal/core"
	"gemini/internal/derive"
	"gemini/internal/schedule"
	"gemini/internal/training"
)

// The interference workload is the executor set behind Fig. 7 and
// Fig. 16: the fluid executor on the 16-machine testbeds. It has no
// seeded input.
var interferenceSet = []struct {
	spec    core.JobSpec
	schemes []schedule.Scheme
}{
	{core.JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16},
		[]schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeGemini}},
	{core.JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
		[]schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeBlocking, schedule.SchemeNaive, schedule.SchemeGemini}},
}

// schemeNames name the schemes in metric names.
var schemeNames = map[schedule.Scheme]string{
	schedule.SchemeBaseline: "baseline",
	schedule.SchemeBlocking: "blocking",
	schedule.SchemeNaive:    "naive",
	schedule.SchemeGemini:   "gemini",
}

type interferenceInputs struct{}

func newInterferenceInputs(int64) (inputs, error) { return interferenceInputs{}, nil }

func (interferenceInputs) parse() error { return nil }

func (interferenceInputs) compile() (instance, error) {
	w := &interference{}
	for _, set := range interferenceSet {
		job, err := core.NewJob(set.spec)
		if err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, job)
	}
	return w, nil
}

// interference runs every scheme of the set on its job per unit.
type interference struct {
	jobs []*core.Job
	// ref is the first unit's results in run order; later units must
	// reproduce them exactly.
	ref   []string
	stats map[string]float64
	sum   string
	// sim is the simulated time one unit covers: the executed
	// iterations, warm-up included, at each run's mean iteration time.
	sim float64
}

func (w *interference) keys() []derive.Key {
	var ks []derive.Key
	for _, j := range w.jobs {
		ks = append(ks, j.Spec.CacheKey())
	}
	return ks
}

func (w *interference) simSeconds() float64 { return w.sim }

func (w *interference) period() int { return 1 }

func (w *interference) check() error { return nil }

func (w *interference) decompose(int, *recorder) error { return nil }

func (w *interference) model() map[string]float64 { return w.stats }

func (w *interference) digest() string { return w.sum }

func (w *interference) unit(i int, rec *recorder) error {
	var got []string
	stats := map[string]float64{}
	sim := 0.0
	iterations := float64(training.DefaultExecOptions(nil, schedule.SchemeBaseline).Iterations + 1)
	for j, set := range interferenceSet {
		byScheme := map[schedule.Scheme]*training.ExecResult{}
		for _, s := range set.schemes {
			rec.begin("training.execute")
			res, err := w.jobs[j].ExecuteScheme(s)
			d := rec.end()
			if err != nil {
				return err
			}
			rec.note("training.execute_s."+schemeNames[s], d)
			byScheme[s] = res
			got = append(got, fmt.Sprintf("%s %s %+v", set.spec.Model, s, *res))
			sim += iterations * res.IterationTime.Seconds()
			if res.OOM {
				stats["training.oom"]++
			}
			for _, c := range res.FabricCounters {
				switch c.Name {
				case "flows_started":
					stats["netsim.flows"] += c.Value
				case "settle_ops":
					stats["netsim.settles"] += c.Value
				case "recomputes":
					stats["netsim.recomputes"] += c.Value
				case "waterfill_rounds":
					stats["netsim.waterfill_rounds"] += c.Value
				case "peak_concurrent_flows":
					stats["netsim.peak_flows"] = math.Max(stats["netsim.peak_flows"], c.Value)
				}
			}
		}
		// The Fig. 16 job carries the §7.4 claims.
		if naive, ok := byScheme[schedule.SchemeNaive]; ok {
			if !naive.OOM {
				return fmt.Errorf("%s: naive interleaving should run out of GPU memory", set.spec.Model)
			}
			gem, blk := byScheme[schedule.SchemeGemini], byScheme[schedule.SchemeBlocking]
			if gem.Overhead() >= blk.Overhead() {
				return fmt.Errorf("%s: GEMINI overhead %.4f not below blocking's %.4f", set.spec.Model, gem.Overhead(), blk.Overhead())
			}
			stats["training.overhead.gemini"] = gem.Overhead()
			stats["training.overhead.blocking"] = blk.Overhead()
			stats["training.idle_utilization.gemini"] = gem.IdleUtilization
		}
	}
	if w.ref == nil {
		w.ref, w.stats, w.sim = got, stats, sim
		h := sha256.New()
		for _, g := range got {
			fmt.Fprintln(h, g)
		}
		w.sum = hex.EncodeToString(h.Sum(nil))
		return nil
	}
	for k := range got {
		if got[k] != w.ref[k] {
			return fmt.Errorf("executor result differs from the first unit's:\n got %s\nwant %s", got[k], w.ref[k])
		}
	}
	return nil
}
