package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/metrics"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// runsim and the agent control plane model the same GEMINI recoveries.
// Over one crash-only schedule they must recover from the same tiers in
// the same order, and each recovery's lost time and downtime must agree
// within recoveryTolerance: both derive their costs from the job's
// constants, so agreeing recoveries agree to float noise, and the
// listed gaps are given to the millisecond.
//
// knownRecoveryGaps lists the recoveries where they do not yet agree,
// keyed by machine count and recovery index, each with the gap the
// agent shows over runsim (agent − runsim) and its causes. Fixing each
// gap, or documenting it as a deliberate model difference, is ROADMAP
// item 1(b). A listed gap that closes, or moves, fails the test until
// its entry is updated.
const recoveryTolerance = simclock.Millisecond

// Causes of the listed gaps. A remote rollback loses all the progress
// made since the remote checkpoint, so the earlier recoveries' gaps
// carry over into it: into #2, which comes before either simulator's
// first remote checkpoint and rolls back to the start, and into #5.
// #5's lost gap is, on 16 machines, −480 s of push lag, −59.4 s of
// remote cadence (180 iterations of 60.33 s past 3 h) and +147.5 s
// carried over; on 64 machines −480 s, −22.3 s (148 of 73.12 s) and
// +130.0 s.
const (
	gapWholeIterations = "lost: the agent counts whole committed iterations, runsim the in-flight phase plus the completion lag"
	gapRemoteCadence   = "lost: the agent's remote cadence is ⌈RemoteInterval / iteration⌉ whole iterations, so its remote checkpoint holds more progress than runsim's, which is RemoteInterval's"
	gapRemotePushLag   = "lost: runsim charges the remote tier's completion lag, the push time RetrievalRemote; the agent's remote commit is durable at once"
	gapCarriedOver     = "lost: the earlier recoveries' gaps carry over into the progress a remote rollback loses"
	gapDetection       = "down: the agent's TRecovery starts at detection, runsim's downtime includes DetectionTime"
)

var knownRecoveryGaps = map[string]struct {
	lost, down simclock.Duration
	reasons    []string
}{
	"16 #0": {-99.220 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"16 #1": {-100.829 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"16 #2": {129.476 * simclock.Second, -15 * simclock.Second, []string{gapCarriedOver, gapDetection}},
	"16 #3": {-64.343 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"16 #4": {-60.330 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"16 #5": {-391.941 * simclock.Second, -15 * simclock.Second, []string{gapRemotePushLag, gapRemoteCadence, gapCarriedOver, gapDetection}},
	"64 #0": {-93.808 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"64 #1": {-129.642 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"64 #2": {93.727 * simclock.Second, -15 * simclock.Second, []string{gapCarriedOver, gapDetection}},
	"64 #3": {-83.478 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"64 #4": {-73.123 * simclock.Second, -15 * simclock.Second, []string{gapWholeIterations, gapDetection}},
	"64 #5": {-372.278 * simclock.Second, -15 * simclock.Second, []string{gapRemotePushLag, gapRemoteCadence, gapCarriedOver, gapDetection}},
}

// recoveryRecord is one recovery as either simulator reports it: its
// source tier, its Eq. 1 terms, and the window it spans.
type recoveryRecord struct {
	source      string
	lost, down  simclock.Duration
	start, done simclock.Time
}

// agreeSchedule draws a seeded crash-only schedule for job: a software
// crash, a hardware crash, the hardware loss of one rank's whole
// replica group, a hardware crash followed, 5–8 minutes later, by a
// software crash of another rank that lands during the first one's
// recovery, and at iteration 400 the loss of a second whole group. The
// crashes are at least 40 iterations apart, so every other recovery
// ends before the next crash lands. The first group loss comes before
// either simulator's first remote checkpoint, the second after it. It
// returns the schedule and the time of the crash that lands during a
// recovery.
func agreeSchedule(j *Job, seed int64) (chaos.Schedule, simclock.Time) {
	n := j.Spec.Machines
	rng := rand.New(rand.NewSource(seed))
	at := func(iters float64) simclock.Time {
		return simclock.Time((iters + 5*rng.Float64()) * float64(j.Timeline.Iteration))
	}
	group := j.Placement.Replicas(rng.Intn(n))
	hw := rng.Intn(n)
	during := (hw + 1 + rng.Intn(n-1)) % n
	hwAt := at(140)
	landsAt := hwAt.Add(simclock.Duration(5+3*rng.Float64()) * simclock.Minute)
	b := chaos.NewBuilder().
		Crash(at(20), rng.Intn(n), cluster.SoftwareFailed).
		Crash(at(60), rng.Intn(n), cluster.HardwareFailed).
		CrashGroup(at(100), cluster.HardwareFailed, group...).
		Crash(hwAt, hw, cluster.HardwareFailed).
		Crash(landsAt, during, cluster.SoftwareFailed)
	// The second group loss draws after every other draw, so the
	// recoveries before it keep their times and ranks.
	late := j.Placement.Replicas(rng.Intn(n))
	return b.CrashGroup(at(400), cluster.HardwareFailed, late...).MustBuild(n), landsAt
}

func TestRunsimAgreesWithControlPlane(t *testing.T) {
	const (
		model    = "GPT-2 100B"
		instance = "p4d.24xlarge"
		// delay is the machine-replacement time: runsim's
		// ReplacementDelay, and the agent's fixed provisioning time.
		delay = 5 * simclock.Minute
		// window is runsim's SimultaneityWindow, the scenario files'
		// value: the crash that lands during a recovery is outside it,
		// so runsim, like the agent, recovers from it on its own.
		window = 10 * simclock.Second
	)
	wantSources := []string{"local", "peer", "remote", "peer", "local", "remote"}
	seen := map[string]bool{}
	for _, n := range []int{16, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			j, err := NewJob(JobSpec{Model: model, Instance: instance, Machines: n})
			if err != nil {
				t.Fatal(err)
			}
			sched, landsAt := agreeSchedule(j, int64(n))
			horizon := 440 * j.Timeline.Iteration

			// runsim: sources and downtimes from the run/recovery spans,
			// lost time from the cumulative wasted timeline.
			cfg, err := j.RunConfig(j.GeminiSpec(), n, sched.Failures(), horizon, delay, window)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.NewTracer(nil)
			wasted := metrics.NewSeries("wasted_seconds", 64)
			cfg.Obs = runsim.Observer{Tracer: tr, Wasted: wasted}
			if _, err := runsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
			var sim []recoveryRecord
			prev := 0.0
			for i, sp := range tr.Track("run", "recovery").Spans() {
				cum := wasted.Point(i).Value
				down := sp.End.Sub(sp.Start)
				sim = append(sim, recoveryRecord{sp.Name, simclock.Duration(cum-prev) - down, down, sp.Start, sp.End})
				prev = cum
			}

			// The agent: the same job and schedule through RecoverySystem.
			fj, err := NewJob(JobSpec{Model: model, Instance: instance, Machines: n, Faults: sched})
			if err != nil {
				t.Fatal(err)
			}
			engine, sys, err := fj.RecoverySystem(cloud.Config{ProvisionMin: delay, ProvisionMax: delay})
			if err != nil {
				t.Fatal(err)
			}
			sys.Start()
			engine.Run(simclock.Time(horizon))
			var ctl []recoveryRecord
			for _, o := range sys.WastedEvents() {
				ctl = append(ctl, recoveryRecord{o.Source, o.TLost, o.TRecovery, o.Detected, o.Resumed})
			}
			// The second group loss must find a remote checkpoint to roll
			// back to, or it would not exercise the remote tier's rollback.
			if evs := sys.WastedEvents(); len(evs) == len(wantSources) && evs[5].Version == 0 {
				t.Fatalf("recovery 5 at %v rolled back to iteration 0: no remote checkpoint yet", evs[5].Detected)
			}

			source := func(rs []recoveryRecord) []string {
				var out []string
				for _, r := range rs {
					out = append(out, r.source)
				}
				return out
			}
			if got := source(sim); !slices.Equal(got, wantSources) {
				t.Fatalf("runsim recovered from %v, want %v", got, wantSources)
			}
			if got := source(ctl); !slices.Equal(got, wantSources) {
				t.Fatalf("the agent recovered from %v, want %v", got, wantSources)
			}
			// The schedule must keep covering a failure during a recovery.
			for _, rs := range [][]recoveryRecord{sim, ctl} {
				if r := rs[3]; !(r.start < landsAt && landsAt < r.done) {
					t.Fatalf("crash at %v lands outside recovery 3 [%v, %v]", landsAt, r.start, r.done)
				}
			}

			for k := range sim {
				name := fmt.Sprintf("%d #%d", n, k)
				seen[name] = true
				lost, down := ctl[k].lost-sim[k].lost, ctl[k].down-sim[k].down
				known, listed := knownRecoveryGaps[name]
				off := func(got, want simclock.Duration) bool {
					return math.Abs(float64(got-want)) > float64(recoveryTolerance)
				}
				switch {
				case !listed && (off(lost, 0) || off(down, 0)):
					t.Errorf("%s (%s): the agent's lost %v and downtime %v, runsim's %v and %v",
						name, sim[k].source, ctl[k].lost, ctl[k].down, sim[k].lost, sim[k].down)
				case listed && (off(lost, known.lost) || off(down, known.down)):
					t.Errorf("%s (%s): gap lost %.3fs, down %.3fs listed (%s); the agent now shows lost %.3fs, down %.3fs over runsim: update or remove the entry",
						name, sim[k].source, known.lost.Seconds(), known.down.Seconds(), strings.Join(known.reasons, "; "), lost.Seconds(), down.Seconds())
				}
			}
		})
	}
	for name := range knownRecoveryGaps {
		if !seen[name] {
			t.Errorf("knownRecoveryGaps lists %s, which the test does not run", name)
		}
	}
}
