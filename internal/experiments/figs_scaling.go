package experiments

import (
	"fmt"
	"strings"

	"gemini/internal/baselines"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
)

// Fig14 reproduces the failure-recovery timeline: GPT-2 100B training on
// 16 p4d machines, one hardware failure during iteration 4, driven
// through the live agent system. The output is the event trace with the
// per-phase durations the paper annotates (detection 15 s, serialization
// 162 s, replacement 4–7 min, retrieval <3 s, warmup >4 min).
func Fig14() (string, error) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return "", err
	}
	engine, sys, err := job.RecoverySystem(cloud.DefaultConfig())
	if err != nil {
		return "", err
	}
	sys.Start()
	iter := job.Timeline.Iteration
	engine.At(simclock.Time(3*iter)+simclock.Time(iter)/2, func() {
		sys.InjectFailure(7, cluster.HardwareFailed)
	})
	engine.Run(simclock.Time(30 * iter))
	if sys.Recoveries() != 1 {
		return "", fmt.Errorf("experiments: fig14 expected one recovery, got %d", sys.Recoveries())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "iteration time %.1f s; failure injected during iteration 4\n\n", iter.Seconds())
	var prev simclock.Time
	for _, ev := range sys.Log().Instants() {
		fmt.Fprintf(&b, "%10.1fs  (+%6.1fs)  %-12s %-18s %s\n",
			float64(ev.At), float64(ev.At.Sub(prev)), ev.Cat, ev.Name, ev.Args)
		prev = ev.At
	}
	return b.String(), nil
}

// simulateRatios returns the effective ratios of Strawman, HighFreq and
// GEMINI on n machines, each averaged over several Poisson failure
// schedules (fixed seeds, so output stays deterministic) to avoid phase
// aliasing between failure spacing and checkpoint intervals. Each seed's
// schedule is drawn once and the three solutions walk it in one
// runsim.RunAll. The specs keep the 16-machine testbed overheads at
// every n, per the paper's methodology.
func simulateRatios(n int, failuresPerDay float64, horizon simclock.Duration) ([3]float64, error) {
	const seeds = 5
	var sums [3]float64
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return sums, err
	}
	specs := [3]baselines.Spec{job.StrawmanSpec(), job.HighFreqSpec(), job.GeminiSpec()}
	m := failure.Model{PerInstancePerDay: failuresPerDay / float64(n)}
	var cfgs [3]runsim.Config
	var out [3]*runsim.Result
	for seed := int64(1); seed <= seeds; seed++ {
		fs, err := m.Generate(n, horizon, seed)
		if err != nil {
			return sums, err
		}
		for i, spec := range specs {
			if cfgs[i], err = job.RunConfig(spec, n, fs, horizon, 0, 0); err != nil {
				return sums, err
			}
		}
		if err := runsim.RunAll(cfgs[:], out[:]); err != nil {
			return sums, err
		}
		for i, res := range out {
			sums[i] += res.EffectiveRatio
		}
	}
	for i := range sums {
		sums[i] /= seeds
	}
	return sums, nil
}

// The Fig. 15 sweeps, each over a ten-day horizon: cluster failures per
// day at the testbed size (15a), and cluster sizes at the OPT-175B rate
// (15b).
var (
	fig15aRates = []float64{0, 2, 4, 6, 8}
	fig15bSizes = []int{16, 100, 200, 400, 600, 800, 1000}
)

const fig15Horizon = 10 * simclock.Day

// Fig15a sweeps the failure rate (software failures, standby machines
// assumed for hardware per §7.3) at 16 instances.
func Fig15a() (string, error) {
	t := newTable("Failures/day", "Strawman", "HighFreq", "GEMINI")
	for _, perDay := range fig15aRates {
		r, err := simulateRatios(testbedMachines, perDay, fig15Horizon)
		if err != nil {
			return "", err
		}
		t.addf("%.0f|%.3f|%.3f|%.3f", perDay, r[0], r[1], r[2])
	}
	return t.String(), nil
}

// Fig15b sweeps the cluster size with the OPT-175B failure rate (1.5% of
// instances per day).
func Fig15b() (string, error) {
	rate := failure.OPTModel()
	t := newTable("Instances", "Failures/day", "Strawman", "HighFreq", "GEMINI")
	for _, n := range fig15bSizes {
		perDay := rate.ClusterFailuresPerDay(n)
		r, err := simulateRatios(n, perDay, fig15Horizon)
		if err != nil {
			return "", err
		}
		t.addf("%d|%.1f|%.3f|%.3f|%.3f", n, perDay, r[0], r[1], r[2])
	}
	return t.String(), nil
}
