package agent

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/kvstore"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
)

// outcomeScenario is one fault schedule of the control-plane outcome
// golden, run on its machines under every strategy.
type outcomeScenario struct {
	name     string
	machines int
	spec     func(n int, shard float64) baselines.Spec
	opts     Options
	cloud    cloud.Config
	horizon  simclock.Time
	arm      func(f *fixture)
}

// alignedSpec is chaosSpec with a whole-heartbeat local reload, so a
// software recovery restarts its workers in the first workers' phase.
func alignedSpec(n int, shard float64) baselines.Spec {
	s := chaosSpec(n, shard)
	s.RetrievalLocal = 5 * simclock.Second
	return s
}

// at schedules fn at the given (possibly fractional) iteration.
func (f *fixture) at(iters float64, fn func()) {
	f.engine.At(simclock.Time(iters*float64(iterTime)), fn)
}

func outcomeScenarios() []outcomeScenario {
	return []outcomeScenario{
		{
			// One of each fault kind, rung by rung, under lease jitter:
			// software, hardware and correlated crashes, a partition, a
			// straggler whose replica peer crashes, a KV outage.
			name: "ladder", machines: 16, spec: testSpec, opts: DefaultOptions(), cloud: cloud.DefaultConfig(),
			horizon: simclock.Time(200 * iterTime),
			arm: func(f *fixture) {
				f.at(0.5, func() { f.sys.SetLeaseJitter(3 * simclock.Second) })
				f.at(15.5, func() { f.sys.InjectFailure(5, cluster.SoftwareFailed) })
				f.at(40.5, func() { f.sys.InjectFailure(9, cluster.HardwareFailed) })
				f.at(65.5, func() { f.sys.InjectCorrelated(cluster.HardwareFailed, 7, 2) })
				f.at(90.5, func() { f.sys.StartPartition(12) })
				f.engine.At(simclock.Time(90.5*float64(iterTime)).Add(3*simclock.Minute), f.sys.HealPartition)
				f.at(110.5, func() { f.sys.SetStraggler(4, 0.4) })
				f.at(115.5, func() { f.sys.InjectFailure(5, cluster.SoftwareFailed) })
				f.at(125.5, func() { f.sys.SetStraggler(4, 1) })
				f.at(140.5, func() { f.sys.SetKVAvailable(false) })
				f.engine.At(simclock.Time(140.5*float64(iterTime)).Add(90*simclock.Second), func() { f.sys.SetKVAvailable(true) })
				f.at(165.5, func() { f.sys.InjectFailure(11, cluster.SoftwareFailed) })
			},
		},
		{
			// The root is partitioned away and fails over; a machine that
			// crashes while partitioned rejoins through HealPartition; the
			// new root dies; a crash lands inside a KV outage.
			name: "root", machines: 16, spec: testSpec, opts: DefaultOptions(), cloud: cloud.DefaultConfig(),
			horizon: simclock.Time(180 * iterTime),
			arm: func(f *fixture) {
				f.at(1.5, func() { f.sys.SetLeaseJitter(2 * simclock.Second) })
				f.at(10.5, func() { f.sys.StartPartition(0) })
				f.at(14.5, f.sys.HealPartition)
				f.at(40.5, func() {
					f.sys.StartPartition(6)
					f.sys.InjectFailure(6, cluster.SoftwareFailed)
				})
				// The store is down from before the recovery of rank 6
				// completes until after the heal, so the root cannot
				// re-detect it and the heal restarts its agent.
				f.engine.At(2450, func() { f.sys.SetKVAvailable(false) })
				f.engine.At(2900, f.sys.HealPartition)
				f.engine.At(2950, func() { f.sys.SetKVAvailable(true) })
				f.at(80.5, func() { f.sys.InjectFailure(f.sys.RootRank(), cluster.HardwareFailed) })
				f.at(120.5, func() { f.sys.SetKVAvailable(false) })
				f.at(120.8, func() { f.sys.InjectFailure(3, cluster.SoftwareFailed) })
				f.at(121.5, func() { f.sys.SetKVAvailable(true) })
				f.at(150.5, func() { f.sys.SetStraggler(8, 0.5) })
				f.at(150.7, func() { f.sys.InjectFailure(9, cluster.HardwareFailed) })
			},
		},
		{
			// Integral costs and instants, so restarted workers share the
			// first workers' heartbeat phase and fire at the same instants.
			name: "aligned", machines: 16, spec: alignedSpec, opts: chaosOpts(), cloud: cloud.Config{Standby: 2, StandbyActivation: 10 * simclock.Second},
			horizon: simclock.Time(60 * iterTime),
			arm: func(f *fixture) {
				f.engine.At(300, func() { f.sys.InjectFailure(3, cluster.SoftwareFailed) })
				f.engine.At(900, func() { f.sys.InjectFailure(10, cluster.HardwareFailed) })
				f.engine.At(1200, func() { f.sys.SetLeaseJitter(2 * simclock.Second) })
				f.engine.At(1500, func() { f.sys.InjectFailure(6, cluster.SoftwareFailed) })
				f.engine.At(2100, func() { f.sys.InjectCorrelated(cluster.SoftwareFailed, 13, 1) })
				f.engine.At(2700, func() { f.sys.InjectFailure(3, cluster.HardwareFailed) })
			},
		},
	}
}

// g renders a float exactly (shortest round-trip form).
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// writeOutcome runs one scenario under one strategy and appends every
// simulated result to buf: the event log, the Eq. 1 ledger, the final
// iteration, revision and traffic, and the full KV event stream. After
// every event it checks that no rank trains on a failed machine, and at
// the end that every Eq. 1 record is well formed: detected no later than
// resumed, T_recovery the span between them, and no negative term.
// A non-nil onPoll is installed as the system's root-poll hook.
func writeOutcome(t *testing.T, buf *bytes.Buffer, sc outcomeScenario, name string, onPoll func(*System)) {
	t.Helper()
	f := newSpecFixture(t, sc.machines, 2, 75e9, sc.spec, sc.opts, sc.cloud)
	if onPoll != nil {
		f.sys.onPoll = func() { onPoll(f.sys) }
	}
	st, err := strategy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	f.sys.SetStrategy(st)
	f.sys.SetRemoteEvery(10)
	var kv bytes.Buffer
	f.sys.Store().Watch("", func(ev kvstore.Event) {
		e := ev.Entry
		fmt.Fprintf(&kv, "kv %v %d %s lease=%d %q\n", ev.Type, e.Rev, e.Key, e.Lease, e.Value)
	})
	sc.arm(f)
	f.sys.Start()
	// Step event by event, so that no rank is found training on a failed
	// machine at any instant, then let Run move the clock to the horizon.
	for f.engine.PeekTime() <= sc.horizon && f.engine.Step() {
		if stuck := f.sys.StuckRanks(); f.sys.Training() && len(stuck) > 0 {
			t.Fatalf("%s %s at %v: ranks %v train on failed machines", sc.name, name, f.engine.Now(), stuck)
		}
	}
	f.engine.Run(sc.horizon)

	tr := f.sys.Traffic()
	fmt.Fprintf(buf, "== %s %s\n", sc.name, name)
	fmt.Fprintf(buf, "iteration %d rev %d recoveries %d training %v root %d\n",
		f.sys.Iteration(), f.sys.Store().Rev(), f.sys.Recoveries(), f.sys.Training(), f.sys.RootRank())
	fmt.Fprintf(buf, "traffic %s %s %s\n", g(tr.Replication), g(tr.Retrieval), g(tr.Remote))
	for _, ev := range f.sys.WastedEvents() {
		if !(ev.Detected <= ev.Resumed && ev.TRecovery == ev.Resumed.Sub(ev.Detected) && ev.TLost >= 0 && ev.LostIterations >= 0) {
			t.Fatalf("%s %s: ill-formed recovery record %+v", sc.name, name, ev)
		}
		fmt.Fprintf(buf, "wasted %s %s %v %s %d %d %s %s\n", g(float64(ev.Detected)), g(float64(ev.Resumed)),
			ev.Ranks, ev.Source, ev.Version, ev.LostIterations, g(float64(ev.TLost)), g(float64(ev.TRecovery)))
	}
	for _, ev := range f.log().Instants() {
		fmt.Fprintf(buf, "log %s %s %s %s\n", g(float64(ev.At)), ev.Cat, ev.Name, ev.Args)
	}
	buf.Write(kv.Bytes())
}

// TestControlPlaneOutcomesGolden pins every simulated result of the
// agent control plane — not the number of events it took to get there —
// across 16 machines, the four strategies and every chaos kind. Workers
// restarted after failures, partitions and heals form heartbeat batches
// of their own, some sharing the first batch's phase, so the golden
// fixes the order of lease renewals and jitter draws across batches.
// Regenerate with
//
//	go test ./internal/agent -run TestControlPlaneOutcomesGolden -update
func TestControlPlaneOutcomesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, sc := range outcomeScenarios() {
		for _, name := range []string{"gemini", "tiered", "sparse", "adaptive"} {
			writeOutcome(t, &buf, sc, name, nil)
		}
	}
	golden := filepath.Join("testdata", "controlplane_outcomes.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("outcomes differ from %s at line %d (run with -update if intentional)\ngot:  %s\nwant: %s",
					golden, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("outcomes differ from %s in length: %d lines, want %d", golden, len(got), len(exp))
	}
}

// TestPollPresenceMatchesStore runs the outcome golden's scenarios under
// every strategy and, at every root poll, compares the missing ranks the
// presence table gives with a Get of every worker's heartbeat key, the
// poll the table replaced. The scenarios cover partitions, KV outages,
// restarts and root failover. The Gets run right after the poll's
// sweep, at the same instant, so they expire nothing and deliver no
// event: the runs are the golden's.
func TestPollPresenceMatchesStore(t *testing.T) {
	polls, missing := 0, 0
	check := func(s *System) {
		polls++
		var want []int
		for rank, w := range s.workers {
			if _, ok := s.store.Get(w.hbKey); !ok {
				want = append(want, rank)
			}
		}
		if len(want) > 0 {
			missing++
		}
		if got := s.missingRanks(); s.missing != len(want) || !slices.Equal(got, want) {
			t.Errorf("poll at %v: presence table has %v missing (count %d), Get per worker finds %v",
				s.engine.Now(), got, s.missing, want)
		}
	}
	for _, sc := range outcomeScenarios() {
		for _, name := range []string{"gemini", "tiered", "sparse", "adaptive"} {
			writeOutcome(t, new(bytes.Buffer), sc, name, check)
		}
	}
	t.Logf("%d polls, %d with missing ranks", polls, missing)
	if missing == 0 {
		t.Fatal("no poll found a missing rank")
	}
}
