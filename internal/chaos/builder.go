package chaos

import (
	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// Builder composes a fault schedule fluently. Window-style faults
// (partitions, stragglers, KV outages) take a duration and emit both the
// opening and the closing event:
//
//	sched, err := chaos.NewBuilder().
//		Partition(190, 40*simclock.Second, 3).
//		CrashGroup(190, cluster.HardwareFailed, 2, 4).
//		Build(16)
type Builder struct {
	events  Schedule
	entries int // calls so far: the next call's Event.Entry
}

// NewBuilder returns an empty schedule builder.
func NewBuilder() *Builder { return &Builder{} }

// add lowers one call's entry through AppendEntry and counts the call.
func (b *Builder) add(ev Event, dur simclock.Duration) *Builder {
	b.events = AppendEntry(b.events, b.entries, ev, dur)
	b.entries++
	return b
}

// Crash fails one machine at the given time.
func (b *Builder) Crash(at simclock.Time, rank int, state cluster.MachineState) *Builder {
	return b.add(Event{At: at, Kind: KindCrash, Ranks: []int{rank}, Machine: state}, 0)
}

// CrashGroup fails several machines together at the given time — a
// correlated failure of a rack or placement group.
func (b *Builder) CrashGroup(at simclock.Time, state cluster.MachineState, ranks ...int) *Builder {
	return b.add(Event{At: at, Kind: KindCorrelatedCrash, Ranks: append([]int(nil), ranks...), Machine: state}, 0)
}

// Partition isolates ranks from the rest of the cluster at the given
// time and heals after healAfter.
func (b *Builder) Partition(at simclock.Time, healAfter simclock.Duration, ranks ...int) *Builder {
	return b.add(Event{At: at, Kind: KindPartitionStart, Ranks: append([]int(nil), ranks...)}, healAfter)
}

// Straggler degrades a rank to factor of its bandwidth for the given
// duration.
func (b *Builder) Straggler(at simclock.Time, dur simclock.Duration, rank int, factor float64) *Builder {
	return b.add(Event{At: at, Kind: KindStragglerStart, Ranks: []int{rank}, Factor: factor}, dur)
}

// KVOutage takes the key-value store down for the given duration.
func (b *Builder) KVOutage(at simclock.Time, dur simclock.Duration) *Builder {
	return b.add(Event{At: at, Kind: KindKVOutage}, dur)
}

// LeaseJitter enables lease-expiry jitter of up to max from the given
// time onward.
func (b *Builder) LeaseJitter(at simclock.Time, max simclock.Duration) *Builder {
	return b.add(Event{At: at, Kind: KindLeaseJitter, Jitter: max}, 0)
}

// Build sorts the schedule deterministically and validates it against a
// cluster of n machines.
func (b *Builder) Build(n int) (Schedule, error) {
	out := append(Schedule(nil), b.events...)
	out.Sort()
	if err := out.Validate(n); err != nil {
		return nil, err
	}
	return out, nil
}

// MustBuild is Build, panicking on error — for statically-known-good
// schedules in examples and tests.
func (b *Builder) MustBuild(n int) Schedule {
	s, err := b.Build(n)
	if err != nil {
		panic(err)
	}
	return s
}
