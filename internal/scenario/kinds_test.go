package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/core"
	"gemini/internal/simclock"
)

// TestChaosKindTable walks every chaos kind through each reader of the
// kind table, so a reader that ignores a kind's row fails here:
//   - every kind has a name of its own;
//   - System.Arm arms every kind: its chaos instant is in the event log
//     at the event's time;
//   - Failures lowers the kinds that kill machines to one failure per
//     rank, and drops every other kind;
//   - every chaosFields name compiles through chaos.AppendEntry to the
//     events its equivalent Builder call builds.
func TestChaosKindTable(t *testing.T) {
	// The instant System.Arm logs for each kind, and whether the kind
	// kills machines.
	armed := map[chaos.Kind]struct {
		instant string
		kills   bool
	}{
		chaos.KindPartitionHeal:   {"partition-heal", false},
		chaos.KindKVRestore:       {"kv-restore", false},
		chaos.KindStragglerEnd:    {"straggler-end", false},
		chaos.KindPartitionStart:  {"partition", false},
		chaos.KindKVOutage:        {"kv-outage", false},
		chaos.KindStragglerStart:  {"straggler", false},
		chaos.KindLeaseJitter:     {"lease-jitter", false},
		chaos.KindCrash:           {"failure", true},
		chaos.KindCorrelatedCrash: {"correlated-failure", true},
	}

	job := core.MustNewJob(core.JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	iter := job.Timeline.Iteration
	at := func(iters int) simclock.Time { return simclock.Time(simclock.Duration(iters)*iter + iter/2) }
	sched := chaos.NewBuilder().
		LeaseJitter(at(1), 2*simclock.Second).
		Straggler(at(2), 3*iter, 5, 0.5).
		KVOutage(at(3), 30*simclock.Second).
		Partition(at(8), 20*simclock.Second, 7).
		Crash(at(12), 3, cluster.SoftwareFailed).
		CrashGroup(at(20), cluster.HardwareFailed, 4, 9).
		MustBuild(16)
	spec := job.Spec
	spec.Faults = sched
	engine, sys, err := core.MustNewJob(spec).RecoverySystem(cloud.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	engine.Run(at(40))
	logged := map[string][]simclock.Time{}
	for _, in := range sys.Log().Instants() {
		logged[in.Name] = append(logged[in.Name], in.At)
	}

	names := map[string]chaos.Kind{}
	for k := chaos.Kind(0); k < chaos.NumKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		} else if prev, dup := names[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), name)
		}
		names[name] = k

		want, ok := armed[k]
		if !ok {
			t.Errorf("%v: no expected instant (add the kind to this test)", k)
			continue
		}
		var ev *chaos.Event
		for i := range sched {
			if sched[i].Kind == k {
				ev = &sched[i]
			}
		}
		if ev == nil {
			t.Errorf("%v: the walk schedule has no event of this kind", k)
			continue
		}
		found := false
		for _, when := range logged[want.instant] {
			found = found || when == ev.At
		}
		if !found {
			t.Errorf("%v at %v: no %q instant at that time (logged at %v)", k, ev.At, want.instant, logged[want.instant])
		}

		fs := chaos.Schedule{*ev}.Failures()
		if want.kills && len(fs) != len(ev.Ranks) {
			t.Errorf("%v kills machines, but Failures lowered %+v to %d events", k, ev.Ranks, len(fs))
		}
		if !want.kills && len(fs) != 0 {
			t.Errorf("%v kills no machine, but Failures lowered it to %+v", k, fs)
		}
	}

	// Each chaosFields name as a one-entry scenario, and the Builder call
	// that means the same. Outages resolve through the compiled fleet.
	entries := map[string]struct {
		fields string
		build  func(b *chaos.Builder, fa *FleetAssignment)
	}{
		"crash": {"rank: 3\n    state: hardware", func(b *chaos.Builder, _ *FleetAssignment) {
			b.Crash(3600, 3, cluster.HardwareFailed)
		}},
		"correlated-crash": {"rank: 9\n    ranks: [2, 4]\n    state: software", func(b *chaos.Builder, _ *FleetAssignment) {
			b.CrashGroup(3600, cluster.SoftwareFailed, 2, 4, 9)
		}},
		"partition": {"ranks: [1, 6]\n    duration: 5m", func(b *chaos.Builder, _ *FleetAssignment) {
			b.Partition(3600, 5*simclock.Minute, 1, 6)
		}},
		"straggler": {"rank: 8\n    factor: 0.25\n    duration: 10m", func(b *chaos.Builder, _ *FleetAssignment) {
			b.Straggler(3600, 10*simclock.Minute, 8, 0.25)
		}},
		"kv-outage": {"duration: 2m", func(b *chaos.Builder, _ *FleetAssignment) {
			b.KVOutage(3600, 2*simclock.Minute)
		}},
		"lease-jitter": {"jitter: 3s", func(b *chaos.Builder, _ *FleetAssignment) {
			b.LeaseJitter(3600, 3*simclock.Second)
		}},
		"region-outage": {"region: eu\n    state: hardware\n    max_ranks: 3", func(b *chaos.Builder, fa *FleetAssignment) {
			b.CrashGroup(3600, cluster.HardwareFailed, fa.RegionRanks("eu")[:3]...)
		}},
		"provider-outage": {"provider: azure\n    state: software\n    max_ranks: 1", func(b *chaos.Builder, fa *FleetAssignment) {
			b.Crash(3600, fa.ProviderRanks("azure")[0], cluster.SoftwareFailed)
		}},
	}
	fleet := "fleet:\n  regions:\n    us: 1\n    eu: 1\n  providers:\n    aws: 1\n    azure: 1\n"
	for name := range chaosFields {
		e, ok := entries[name]
		if !ok {
			t.Errorf("chaos kind %q: no entry in this test", name)
			continue
		}
		src := fmt.Sprintf("%s%schaos:\n  - at: 1h\n    kind: %s\n    %s\n", smallYAML, fleet, name, e.fields)
		s, err := Parse([]byte(src))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		c, err := s.Compile()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		b := chaos.NewBuilder()
		e.build(b, c.Fleet)
		if want := b.MustBuild(16); !reflect.DeepEqual(c.Chaos, want) {
			t.Errorf("%s: compiled to %+v, the Builder builds %+v", name, c.Chaos, want)
		}
	}
}
