package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/failure"
	"gemini/internal/model"
)

// Every experiment must run and produce a non-trivial table. Content
// correctness is asserted by the per-package tests; here we verify the
// harness end to end and a few headline numbers embedded in the output.

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(strings.Split(out, "\n")) < 3 {
				t.Fatalf("%s produced a trivial table:\n%s", e.ID, out)
			}
		})
	}
}

func TestAblationsRun(t *testing.T) {
	for _, e := range Ablations() {
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(strings.Split(out, "\n")) < 3 {
				t.Fatalf("%s produced a trivial table:\n%s", e.ID, out)
			}
		})
	}
}

func TestAblationGammaShowsOverflowAtLowGamma(t *testing.T) {
	out, err := AblationGamma()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "false") {
		t.Fatalf("γ sweep never overflows — the knob does nothing:\n%s", out)
	}
	if !strings.Contains(out, "true") {
		t.Fatalf("γ sweep never fits:\n%s", out)
	}
}

// RunAll must return the same outputs as running each experiment
// serially, in the same order, at every worker count. Running this under
// `go test -race` is also the proof that the experiments are safe to run
// concurrently — they share no mutable state.
func TestRunAllMatchesSerial(t *testing.T) {
	exps := append(All(), Ablations()...)
	want := make([]string, len(exps))
	for i, e := range exps {
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		want[i] = out
	}
	for _, workers := range []int{1, 4} {
		results := RunAll(context.Background(), exps, workers)
		if len(results) != len(exps) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(exps))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d %s: %v", workers, r.ID, r.Err)
			}
			if r.ID != exps[i].ID {
				t.Fatalf("workers=%d slot %d: got %s, want %s (order lost)", workers, i, r.ID, exps[i].ID)
			}
			if r.Output != want[i] {
				t.Errorf("workers=%d %s: concurrent output differs from serial", workers, r.ID)
			}
		}
	}
}

// A failing experiment must be reported in its own Result without
// aborting the rest of the sweep.
func TestRunAllIsolatesFailures(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok1", Title: "ok", Run: func() (string, error) { return "a", nil }},
		{ID: "bad", Title: "bad", Run: func() (string, error) { return "", boom }},
		{ID: "ok2", Title: "ok", Run: func() (string, error) { return "b", nil }},
	}
	results := RunAll(context.Background(), exps, 2)
	if results[0].Err != nil || results[0].Output != "a" {
		t.Fatalf("ok1: %+v", results[0])
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("bad: err = %v, want boom", results[1].Err)
	}
	if results[2].Err != nil || results[2].Output != "b" {
		t.Fatalf("ok2: %+v", results[2])
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig9")
	if err != nil || e.ID != "fig9" {
		t.Fatalf("ByID(fig9) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestTable1ShowsRatioAboveOne(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "p4d.24xlarge") || !strings.Contains(out, "1152 GB") {
		t.Fatalf("Table 1 missing p4d row:\n%s", out)
	}
}

func TestFig9ShowsPaperNumbers(t *testing.T) {
	out, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// N=16 row: GEMINI k=2 0.933, k=3 0.800, ring k=3 0.600.
	var found bool
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "16 ") {
			found = true
			for _, want := range []string{"0.933", "0.800", "0.600"} {
				if !strings.Contains(line, want) {
					t.Fatalf("Fig 9 N=16 row %q missing %s", line, want)
				}
			}
		}
	}
	if !found {
		t.Fatalf("Fig 9 has no N=16 row:\n%s", out)
	}
}

// Fig. 11's claims as relations: at N=16 GEMINI checkpoints at least
// the paper's 65× faster than the remote baselines at 100 Gbps and more
// than 250× faster at 400 Gbps, and the reduction grows with the machine
// count and with the bandwidth.
func TestFig11ReductionGrowsWithMachinesAndBandwidth(t *testing.T) {
	m := model.MustByName("GPT-2 100B")
	machines, gbits := []int{4, 8, 12, 16}, []float64{100, 200, 400}
	r := make([][]float64, len(machines))
	for i, n := range machines {
		for _, gbit := range gbits {
			x, err := checkpointReduction(m, n, gbit)
			if err != nil {
				t.Fatal(err)
			}
			r[i] = append(r[i], x)
		}
	}
	for i := range machines {
		for j := range gbits {
			if i > 0 && !(r[i][j] > r[i-1][j]) {
				t.Errorf("%v Gbps: reduction %.1f× at N=%d, not above %.1f× at N=%d",
					gbits[j], r[i][j], machines[i], r[i-1][j], machines[i-1])
			}
			if j > 0 && !(r[i][j] > r[i][j-1]) {
				t.Errorf("N=%d: reduction %.1f× at %v Gbps, not above %.1f× at %v Gbps",
					machines[i], r[i][j], gbits[j], r[i][j-1], gbits[j-1])
			}
		}
	}
	n16 := r[len(machines)-1]
	if n16[0] < 65 {
		t.Errorf("N=16, 100 Gbps: reduction %.1f×, want at least the paper's 65×", n16[0])
	}
	if n16[2] <= 250 {
		t.Errorf("N=16, 400 Gbps: reduction %.1f×, want above the paper's 250×", n16[2])
	}
}

// Fig. 10's claims as relations: GEMINI wastes more than 13× less time
// per failure than HighFreq on the two peer-recovery rows (one and two
// replaced instances in different groups) and more than 12× less on the
// software-failure row, while losing a whole group costs it exactly
// Strawman's remote recovery.
func TestFig10GeminiBeatsHighFreqUnlessAGroupIsLost(t *testing.T) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		t.Fatal(err)
	}
	straw, high, gem := job.StrawmanSpec(), job.HighFreqSpec(), job.GeminiSpec()
	highFreq := high.AverageWasted(baselines.FromRemote).Seconds()
	if r := highFreq / gem.AverageWasted(baselines.FromPeer).Seconds(); !(r > 13) {
		t.Errorf("peer rows: HighFreq wastes %.2f× GEMINI's time, want above 13×", r)
	}
	if r := highFreq / gem.AverageWasted(baselines.FromLocal).Seconds(); !(r > 12) {
		t.Errorf("software-failure row: HighFreq wastes %.2f× GEMINI's time, want above 12×", r)
	}
	if g, s := gem.AverageWasted(baselines.FromRemote), straw.AverageWasted(baselines.FromRemote); g != s {
		t.Errorf("same-group row: GEMINI wastes %v, want Strawman's %v", g, s)
	}
}

// Fig. 15a's claims as relations: GEMINI's effective ratio is at least
// each baseline's at every failure rate and does not rise with the
// rate; at 8 failures a day GEMINI keeps at least 0.95 while Strawman
// falls below 0.5.
func TestFig15aGeminiLeadsAtEveryFailureRate(t *testing.T) {
	var prev [3]float64
	for i, perDay := range fig15aRates {
		r, err := simulateRatios(testbedMachines, perDay, fig15Horizon)
		if err != nil {
			t.Fatal(err)
		}
		straw, high, gem := r[0], r[1], r[2]
		if gem < straw || gem < high {
			t.Errorf("%v/day: GEMINI %.3f below a baseline (Strawman %.3f, HighFreq %.3f)", perDay, gem, straw, high)
		}
		if i > 0 && gem > prev[2] {
			t.Errorf("%v/day: GEMINI %.3f above its %.3f at %v/day", perDay, gem, prev[2], fig15aRates[i-1])
		}
		prev = r
	}
	if last := fig15aRates[len(fig15aRates)-1]; last != 8 {
		t.Fatalf("Fig. 15a sweep ends at %v/day, want 8", last)
	}
	if prev[2] < 0.95 || prev[0] >= 0.5 {
		t.Errorf("8/day: GEMINI %.3f (want ≥ 0.95), Strawman %.3f (want < 0.5)", prev[2], prev[0])
	}
}

// Fig. 15b's claims as relations: GEMINI's effective ratio does not rise
// with the cluster size; at 1000 instances it keeps at least 0.91 and
// 1.3× HighFreq's while Strawman falls below 0.2.
func TestFig15bGeminiHoldsUpAtScale(t *testing.T) {
	rate := failure.OPTModel()
	var prev [3]float64
	for i, n := range fig15bSizes {
		r, err := simulateRatios(n, rate.ClusterFailuresPerDay(n), fig15Horizon)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && r[2] > prev[2] {
			t.Errorf("%d instances: GEMINI %.3f above its %.3f at %d", n, r[2], prev[2], fig15bSizes[i-1])
		}
		prev = r
	}
	if last := fig15bSizes[len(fig15bSizes)-1]; last != 1000 {
		t.Fatalf("Fig. 15b sweep ends at %d instances, want 1000", last)
	}
	straw, high, gem := prev[0], prev[1], prev[2]
	if gem < 0.91 || gem < 1.3*high || straw >= 0.2 {
		t.Errorf("1000 instances: GEMINI %.3f (want ≥ 0.91 and ≥ 1.3× HighFreq %.3f), Strawman %.3f (want < 0.2)", gem, high, straw)
	}
}

// Fig. 12's claims: GEMINI checkpoints about 8× as often as HighFreq
// and more than 170× as often as Strawman.
func TestFig12FrequencyRatios(t *testing.T) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		t.Fatal(err)
	}
	gem := job.GeminiSpec()
	if r := baselines.FrequencyRatio(gem, job.HighFreqSpec()); r < 7.5 || r > 8.5 {
		t.Errorf("GEMINI checkpoints %.2f× as often as HighFreq, want about 8×", r)
	}
	if r := baselines.FrequencyRatio(gem, job.StrawmanSpec()); r <= 170 {
		t.Errorf("GEMINI checkpoints %.1f× as often as Strawman, want more than 170×", r)
	}
}

func TestFig16ShowsNaiveOOM(t *testing.T) {
	out, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OOM") {
		t.Fatalf("Fig 16 missing the naive-interleave OOM:\n%s", out)
	}
	if !strings.Contains(out, "GEMINI") || !strings.Contains(out, "Blocking") {
		t.Fatalf("Fig 16 missing schemes:\n%s", out)
	}
}

func TestFig14ShowsRecoveryPhases(t *testing.T) {
	out, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"failure-detected", "serialized", "replaced", "retrieved", "recovery-complete"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("Fig 14 timeline missing %q:\n%s", phase, out)
		}
	}
}
