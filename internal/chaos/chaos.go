// Package chaos is the fault-injection engine layered over the
// discrete-event substrate: it builds, orders and validates a
// declarative schedule of faults — crashes, correlated (rack-level)
// crashes, network partitions, stragglers, key-value store outages,
// lease jitter — which the agent control plane arms as timed
// injections (agent.System.Arm) and the long-run simulator lowers to
// machine failures (Failures). The paper's fail-stop independent model
// (§6) is the easy case; this package exists to exercise the recovery
// paths that model hides. The kind table states once what each kind
// is, and AppendEntry lowers an authored entry for the Builder and the
// scenario compiler alike.
package chaos

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/simclock"
)

// Kind enumerates fault event kinds.
type Kind int

// Enum order doubles as same-timestamp precedence in Sort: window
// closers come before openers (so back-to-back windows validate), and
// connectivity faults come before crashes (a crash at the same instant
// is observed under the partition, which is the interesting case).
const (
	// KindPartitionHeal reconnects all partitioned ranks.
	KindPartitionHeal Kind = iota
	// KindKVRestore brings the key-value store back.
	KindKVRestore
	// KindStragglerEnd restores degraded ranks to full bandwidth.
	KindStragglerEnd
	// KindPartitionStart cuts a set of ranks off from the network.
	KindPartitionStart
	// KindKVOutage makes the key-value store unavailable.
	KindKVOutage
	// KindStragglerStart degrades ranks to a fraction of their bandwidth.
	KindStragglerStart
	// KindLeaseJitter enables deterministic lease-expiry jitter.
	KindLeaseJitter
	// KindCrash fails one machine (software or hardware).
	KindCrash
	// KindCorrelatedCrash fails several machines at the same instant —
	// a rack or placement group sharing a failure domain.
	KindCorrelatedCrash
	// NumKinds counts the kinds: the kind table has one row for each.
	NumKinds
)

// kindSpec is one row of the kind table: a kind's name and what its events read.
type kindSpec struct {
	name     string
	minRanks int  // the fewest target ranks; 0 for kinds that target none
	kills    bool // carries a failure state and fails its ranks
	factor   bool // carries a bandwidth factor in (0, 1]
	jitter   bool // carries a finite, non-negative lease jitter
	window   bool // opens a window that an event of kind closer ends
	closer   Kind
}

// kinds is the kind table, read by String, Check, AppendEntry and Failures.
var kinds = [NumKinds]kindSpec{
	KindPartitionHeal:   {name: "partition-heal"},
	KindKVRestore:       {name: "kv-restore"},
	KindStragglerEnd:    {name: "straggler-end", minRanks: 1},
	KindPartitionStart:  {name: "partition-start", minRanks: 1, window: true, closer: KindPartitionHeal},
	KindKVOutage:        {name: "kv-outage", window: true, closer: KindKVRestore},
	KindStragglerStart:  {name: "straggler-start", minRanks: 1, factor: true, window: true, closer: KindStragglerEnd},
	KindLeaseJitter:     {name: "lease-jitter", jitter: true},
	KindCrash:           {name: "crash", minRanks: 1, kills: true},
	KindCorrelatedCrash: {name: "correlated-crash", minRanks: 2, kills: true},
}

// spec returns the kind's row; the zero row, unnamed, for an unknown kind.
func (k Kind) spec() kindSpec {
	if k < 0 || int(k) >= len(kinds) {
		return kindSpec{}
	}
	return kinds[k]
}

func (k Kind) String() string {
	if name := k.spec().name; name != "" {
		return name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	At   simclock.Time
	Kind Kind
	// Ranks targets machines; unused by KV and jitter events.
	Ranks []int
	// Machine is the failure state for crash kinds.
	Machine cluster.MachineState
	// Factor is the bandwidth fraction for straggler starts, in (0, 1].
	Factor float64
	// Jitter is the maximum lease-expiry extension for KindLeaseJitter.
	Jitter simclock.Duration
	// Entry is the index of the entry that produced the event: the
	// Builder call, or the scenario's chaos[i]. A window's opener and
	// closer share it. Validate names it, since sorting moves events.
	Entry int
}

// Schedule is a time-ordered fault schedule.
type Schedule []Event

// Sort orders the schedule deterministically: by time, then kind, then
// first rank. Injection order is then fully determined by contents.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At < s[j].At
		}
		if s[i].Kind != s[j].Kind {
			return s[i].Kind < s[j].Kind
		}
		return firstRank(s[i]) < firstRank(s[j])
	})
}

func firstRank(ev Event) int {
	if len(ev.Ranks) == 0 {
		return -1
	}
	return slices.Min(ev.Ranks)
}

// AppendEntry appends the events one authored entry lowers to, each
// marked with entry: ev itself and, when ev opens a window, the closer
// dur later, on ev's ranks if the closer takes ranks.
func AppendEntry(s Schedule, entry int, ev Event, dur simclock.Duration) Schedule {
	ev.Entry = entry
	s = append(s, ev)
	if spec := ev.Kind.spec(); spec.window {
		end := Event{At: ev.At.Add(dur), Kind: spec.closer, Entry: entry}
		if spec.closer.spec().minRanks > 0 {
			end.Ranks = ev.Ranks
		}
		s = append(s, end)
	}
	return s
}

// Check validates one event alone against a cluster of n machines: a
// known kind, a non-negative time, distinct in-range ranks, and the
// parameters its kind's row names. An error names the event's entry.
func (ev Event) Check(n int) error {
	spec := ev.Kind.spec()
	if spec.name == "" {
		return ev.errorf("has unknown kind")
	}
	if ev.At < 0 {
		return ev.errorf("at negative time %v", ev.At)
	}
	// Sorting a copy only when out of order keeps an outage's ascending
	// ranks one pass.
	sorted := ev.Ranks
	if !slices.IsSorted(sorted) {
		sorted = slices.Sorted(slices.Values(sorted))
	}
	for i, r := range sorted {
		if r < 0 || r >= n {
			return ev.errorf("rank %d out of range [0,%d)", r, n)
		}
		if i > 0 && r == sorted[i-1] {
			return ev.errorf("names rank %d twice", r)
		}
	}
	if len(ev.Ranks) < spec.minRanks {
		return ev.errorf("needs ≥ %d ranks, got %d", spec.minRanks, len(ev.Ranks))
	}
	if spec.kills && ev.Machine != cluster.SoftwareFailed && ev.Machine != cluster.HardwareFailed {
		return ev.errorf("has non-failure machine state %v", ev.Machine)
	}
	if spec.factor && !(ev.Factor > 0 && ev.Factor <= 1) {
		return ev.errorf("factor %v out of (0,1]", ev.Factor)
	}
	if spec.jitter && (!(ev.Jitter >= 0) || math.IsInf(float64(ev.Jitter), 1)) {
		return ev.errorf("jitter %v must be finite and non-negative", ev.Jitter)
	}
	return nil
}

// errorf returns an error about ev that names the entry it came from.
func (ev Event) errorf(format string, args ...any) error {
	return fmt.Errorf("chaos: chaos[%d] (%v): %s", ev.Entry, ev.Kind, fmt.Sprintf(format, args...))
}

// Validate checks the schedule against a cluster of n machines: every
// event passes Check, in order, and windows pair up (partition and
// KV-outage windows cannot nest or overlap, because heal and restore
// apply to everything at once). An error names the offending entry.
func (s Schedule) Validate(n int) error {
	partitionOpen, kvDown := false, false
	degraded := map[int]bool{}
	for i, ev := range s {
		if err := ev.Check(n); err != nil {
			return err
		}
		if i > 0 && ev.At < s[i-1].At {
			return fmt.Errorf("chaos: events out of order at %d (sort the schedule)", i)
		}
		switch ev.Kind {
		case KindPartitionStart:
			if partitionOpen {
				return ev.errorf("opens a partition inside another partition window")
			}
			partitionOpen = true
		case KindPartitionHeal:
			if !partitionOpen {
				return ev.errorf("heals with no open partition")
			}
			partitionOpen = false
		case KindStragglerStart:
			for _, r := range ev.Ranks {
				if degraded[r] {
					return ev.errorf("degrades rank %d inside another straggler window", r)
				}
				degraded[r] = true
			}
		case KindStragglerEnd:
			// Ends sort before starts at the same instant, so a
			// zero-duration straggler fails here instead of leaving its
			// rank degraded forever.
			for _, r := range ev.Ranks {
				if !degraded[r] {
					return ev.errorf("ends a straggler on rank %d that is not degraded", r)
				}
				delete(degraded, r)
			}
		case KindKVOutage:
			if kvDown {
				return ev.errorf("opens a KV outage inside another outage window")
			}
			kvDown = true
		case KindKVRestore:
			if !kvDown {
				return ev.errorf("restores a store that is not down")
			}
			kvDown = false
		}
	}
	return nil
}

// Failures lowers the kinds that kill machines — crashes and correlated
// crashes — into a failure.Schedule for the long-run simulator.
// Partitions, stragglers, KV outages, and lease jitter have no analogue
// in runsim's §7.3 accounting and are dropped. The result is ordered
// and deduplicated through failure.AppendMerge, so a rank hit by a
// software and a hardware crash at the same instant collapses to one
// hardware failure.
func (s Schedule) Failures() failure.Schedule {
	var out failure.Schedule
	for _, ev := range s {
		if ev.Kind.spec().kills {
			for _, r := range ev.Ranks {
				out = append(out, failure.Event{At: ev.At, Rank: r, Kind: ev.Machine})
			}
		}
	}
	if out == nil {
		return nil
	}
	return failure.AppendMerge(nil, out)
}
