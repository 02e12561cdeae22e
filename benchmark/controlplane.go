package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/core"
	"gemini/internal/derive"
	"gemini/internal/simclock"
)

// The control-plane workload: GPT-2 100B on the 16-machine p4d testbed,
// run through the agent event loop under fault ladders drawn from the
// seed. Successive units rotate through the checkpoint strategies, then
// through the ladders.
const (
	cpMachines    = 16
	cpHorizon     = 200 // iterations of simulated time per unit
	cpRemoteEvery = 10  // remote checkpoint cadence, in iterations
	// cpLadders is the number of ladders drawn from the seed. A pass runs
	// every strategy on every ladder, so the metrics average over several
	// draws and move little from one seed to the next.
	cpLadders = 8
)

var cpStrategies = []string{"gemini", "tiered", "sparse", "adaptive"}

type controlPlaneInputs struct {
	// specs holds one job per ladder and strategy, strategies innermost.
	specs []core.JobSpec
	// crashGroups is the number of crash instants in a ladder; every one
	// must cause a recovery.
	crashGroups int
	horizon     simclock.Time
}

func newControlPlaneInputs(seed int64) (inputs, error) {
	base := core.JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: cpMachines}
	job, err := core.NewJob(base)
	if err != nil {
		return nil, err
	}
	iter := job.Timeline.Iteration
	rng := rand.New(rand.NewSource(seed))
	in := &controlPlaneInputs{horizon: simclock.Time(cpHorizon * iter)}
	for range cpLadders {
		ladder, groups, err := faultLadder(rng, iter)
		if err != nil {
			return nil, err
		}
		in.crashGroups = groups
		for _, name := range cpStrategies {
			spec := base
			spec.Strategy = name
			spec.Faults = ladder
			in.specs = append(in.specs, spec)
		}
	}
	return in, nil
}

// faultLadder draws one of each fault kind at seeded ranks and times,
// rung by rung, far enough apart that each recovery finishes before the
// next fault: a software crash, a hardware crash, a correlated hardware
// crash, a partition, a straggler whose replica peer then crashes, a
// KV-store outage and a last software crash, all under lease jitter. It
// returns the schedule and its number of crash instants. The kinds,
// failure states and durations are fixed, so the amount of recovery
// work, and with it a unit's cost, barely moves with the seed.
func faultLadder(rng *rand.Rand, iter simclock.Duration) (chaos.Schedule, int, error) {
	// at draws a mid-iteration instant in iterations [lo, lo+10).
	at := func(lo int) simclock.Time {
		return simclock.Time(simclock.Duration(lo+rng.Intn(10))*iter + iter/2)
	}
	rank := func() int { return rng.Intn(cpMachines) }
	b := chaos.NewBuilder()
	b.LeaseJitter(at(0), simclock.Duration(1+rng.Intn(4))*simclock.Second)
	b.Crash(at(15), rank(), cluster.SoftwareFailed)
	b.Crash(at(40), rank(), cluster.HardwareFailed)
	// Ranks 2k and 2k+1 share a placement group at m=2. The correlated
	// crash hits two groups, so both recover from a surviving peer; the
	// straggler's peer crashes, so its recovery reads from the straggler.
	first := rank()
	b.CrashGroup(at(65), cluster.HardwareFailed, first, (first+2+2*rng.Intn(cpMachines/2-1))%cpMachines)
	b.Partition(at(90), 3*simclock.Minute, rank())
	slow := rank()
	st := at(110)
	b.Straggler(st, 15*iter, slow, 0.25+0.5*rng.Float64())
	b.Crash(st.Add(5*iter), slow^1, cluster.SoftwareFailed)
	b.KVOutage(at(140), 90*simclock.Second)
	b.Crash(at(165), rank(), cluster.SoftwareFailed)
	sched, err := b.Build(cpMachines)
	return sched, 5, err
}

func (in *controlPlaneInputs) parse() error { return nil }

func (in *controlPlaneInputs) compile() (instance, error) {
	w := &controlPlane{in: in, ref: make([]*cpOutcome, len(in.specs))}
	for _, spec := range in.specs {
		job, err := core.NewJob(spec)
		if err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, job)
	}
	return w, nil
}

// controlPlane runs one job's recovery system per unit.
type controlPlane struct {
	in   *controlPlaneInputs
	jobs []*core.Job
	// ref is each job's first outcome; later units must match it.
	ref []*cpOutcome
}

// cpOutcome is what one control-plane run produced.
type cpOutcome struct {
	fired, iterations, recoveries, revisions, switches int64
	local, peer, remote                                int
	wastedSim                                          float64
	replication, retrieval, remoteBytes                float64
	training                                           bool
	// events renders every recovery's Eq. 1 record.
	events string
}

func (w *controlPlane) keys() []derive.Key { return []derive.Key{w.in.specs[0].CacheKey()} }

func (w *controlPlane) period() int { return len(w.jobs) }

func (w *controlPlane) simSeconds() float64 { return float64(w.in.horizon) }

func (w *controlPlane) check() error { return nil }

func (w *controlPlane) decompose(int, *recorder) error { return nil }

func (w *controlPlane) unit(i int, rec *recorder) error {
	k := i % len(w.jobs)
	strat := cpStrategies[k%len(cpStrategies)]
	name := fmt.Sprintf("ladder %d %s", k/len(cpStrategies), strat)
	rec.begin("core.recovery_system")
	engine, sys, err := w.jobs[k].RecoverySystem(cloud.DefaultConfig())
	if err == nil {
		sys.SetRemoteEvery(cpRemoteEvery)
	}
	rec.end()
	if err != nil {
		return err
	}
	rec.begin("agent.run")
	sys.Start()
	fired := engine.Run(w.in.horizon)
	d := rec.end()
	rec.note("agent.run_s."+strat, d)
	rec.note("simclock.events_per_s", float64(fired)/d)

	tr := sys.Traffic()
	o := &cpOutcome{
		fired:       int64(fired),
		iterations:  sys.Iteration(),
		recoveries:  int64(sys.Recoveries()),
		revisions:   sys.Store().Rev(),
		switches:    int64(len(sys.Log().Filter("strategy-switch"))),
		replication: tr.Replication,
		retrieval:   tr.Retrieval,
		remoteBytes: tr.Remote,
		training:    sys.Training(),
	}
	for _, ev := range sys.WastedEvents() {
		switch ev.Source {
		case "local":
			o.local++
		case "peer":
			o.peer++
		case "remote":
			o.remote++
		}
		o.wastedSim += ev.Wasted().Seconds()
		o.events += fmt.Sprintf("%v %v %v %s %d %d %v %v;", ev.Detected, ev.Resumed, ev.Ranks, ev.Source,
			ev.Version, ev.LostIterations, ev.TLost, ev.TRecovery)
	}
	if !o.training {
		return fmt.Errorf("%s: training has not resumed at the horizon", name)
	}
	if o.recoveries < int64(w.in.crashGroups) {
		return fmt.Errorf("%s: %d recoveries for %d injected crash groups", name, o.recoveries, w.in.crashGroups)
	}
	if w.ref[k] == nil {
		w.ref[k] = o
	} else if *o != *w.ref[k] {
		return fmt.Errorf("%s: outcome %+v differs from the first run's %+v", name, *o, *w.ref[k])
	}
	return nil
}

// model averages the outcomes of the jobs run so far, one each.
func (w *controlPlane) model() map[string]float64 {
	var ran []*cpOutcome
	for _, o := range w.ref {
		if o != nil {
			ran = append(ran, o)
		}
	}
	m := map[string]float64{}
	n := float64(len(ran))
	for _, o := range ran {
		m["simclock.events"] += float64(o.fired) / n
		m["agent.iterations"] += float64(o.iterations) / n
		m["agent.recoveries"] += float64(o.recoveries) / n
		m["agent.from_local"] += float64(o.local) / n
		m["agent.from_peer"] += float64(o.peer) / n
		m["agent.from_remote"] += float64(o.remote) / n
		m["agent.wasted_sim_s"] += o.wastedSim / n
		m["kvstore.revisions"] += float64(o.revisions) / n
		m["ckpt.replication_gb"] += o.replication / 1e9 / n
		m["ckpt.retrieval_gb"] += o.retrieval / 1e9 / n
		m["ckpt.remote_gb"] += o.remoteBytes / 1e9 / n
		m["strategy.switches"] += float64(o.switches) / n
	}
	return m
}

func (w *controlPlane) digest() string {
	h := sha256.New()
	for k, o := range w.ref {
		if o != nil {
			fmt.Fprintf(h, "%d %+v\n", k, *o)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
