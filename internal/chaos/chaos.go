// Package chaos is the fault-injection engine layered over the
// discrete-event substrate: it turns a declarative schedule of faults —
// crashes, correlated (rack-level) crashes, network partitions,
// stragglers, key-value store outages, lease jitter — into timed
// injections against the agent control plane. The paper's fail-stop
// independent model (§6) is the easy case; this package exists to
// exercise the recovery paths that model hides.
package chaos

import (
	"fmt"
	"sort"

	"gemini/internal/agent"
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
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindCorrelatedCrash:
		return "correlated-crash"
	case KindPartitionStart:
		return "partition-start"
	case KindPartitionHeal:
		return "partition-heal"
	case KindStragglerStart:
		return "straggler-start"
	case KindStragglerEnd:
		return "straggler-end"
	case KindKVOutage:
		return "kv-outage"
	case KindKVRestore:
		return "kv-restore"
	case KindLeaseJitter:
		return "lease-jitter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
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
	min := ev.Ranks[0]
	for _, r := range ev.Ranks {
		if r < min {
			min = r
		}
	}
	return min
}

// Validate checks the schedule against a cluster of n machines: ordered
// events, in-range ranks, sane parameters, and properly paired windows
// (partition and KV-outage windows cannot nest or overlap, because heal
// and restore apply to everything at once).
func (s Schedule) Validate(n int) error {
	partitionOpen := false
	kvDown := false
	degraded := map[int]bool{}
	for i, ev := range s {
		if ev.At < 0 {
			return fmt.Errorf("chaos: event %d at negative time %v", i, ev.At)
		}
		if i > 0 && ev.At < s[i-1].At {
			return fmt.Errorf("chaos: events out of order at %d (sort the schedule)", i)
		}
		for _, r := range ev.Ranks {
			if r < 0 || r >= n {
				return fmt.Errorf("chaos: event %d rank %d out of range [0,%d)", i, r, n)
			}
		}
		switch ev.Kind {
		case KindCrash, KindCorrelatedCrash:
			if len(ev.Ranks) == 0 {
				return fmt.Errorf("chaos: event %d (%v) has no target ranks", i, ev.Kind)
			}
			if ev.Machine != cluster.SoftwareFailed && ev.Machine != cluster.HardwareFailed {
				return fmt.Errorf("chaos: event %d has non-failure machine state %v", i, ev.Machine)
			}
			if ev.Kind == KindCorrelatedCrash && len(ev.Ranks) < 2 {
				return fmt.Errorf("chaos: event %d correlated crash needs ≥ 2 ranks", i)
			}
		case KindPartitionStart:
			if len(ev.Ranks) == 0 {
				return fmt.Errorf("chaos: event %d partition has no ranks", i)
			}
			if partitionOpen {
				return fmt.Errorf("chaos: event %d opens a partition inside another partition window", i)
			}
			partitionOpen = true
		case KindPartitionHeal:
			if !partitionOpen {
				return fmt.Errorf("chaos: event %d heals with no open partition", i)
			}
			partitionOpen = false
		case KindStragglerStart:
			if len(ev.Ranks) == 0 {
				return fmt.Errorf("chaos: event %d straggler has no ranks", i)
			}
			if ev.Factor <= 0 || ev.Factor > 1 {
				return fmt.Errorf("chaos: event %d straggler factor %v out of (0,1]", i, ev.Factor)
			}
			for _, r := range ev.Ranks {
				if degraded[r] {
					return fmt.Errorf("chaos: event %d degrades rank %d inside another straggler window", i, r)
				}
				degraded[r] = true
			}
		case KindStragglerEnd:
			if len(ev.Ranks) == 0 {
				return fmt.Errorf("chaos: event %d straggler end has no ranks", i)
			}
			// Ends sort before starts at the same instant, so a
			// zero-duration straggler fails here instead of leaving its
			// rank degraded forever.
			for _, r := range ev.Ranks {
				if !degraded[r] {
					return fmt.Errorf("chaos: event %d ends a straggler on rank %d that is not degraded", i, r)
				}
				delete(degraded, r)
			}
		case KindKVOutage:
			if kvDown {
				return fmt.Errorf("chaos: event %d opens a KV outage inside another outage window", i)
			}
			kvDown = true
		case KindKVRestore:
			if !kvDown {
				return fmt.Errorf("chaos: event %d restores a store that is not down", i)
			}
			kvDown = false
		case KindLeaseJitter:
			if ev.Jitter < 0 {
				return fmt.Errorf("chaos: event %d negative jitter %v", i, ev.Jitter)
			}
		default:
			return fmt.Errorf("chaos: event %d has unknown kind %v", i, ev.Kind)
		}
	}
	return nil
}

// Failures lowers the machine-killing subset of the schedule — crashes
// and correlated crashes — into a failure.Schedule for the long-run
// simulator. Partitions, stragglers, KV outages, and lease jitter have
// no analogue in runsim's §7.3 accounting and are dropped. The result
// is ordered and deduplicated through failure.Merge, so a rank hit by a
// software and a hardware crash at the same instant collapses to one
// hardware failure.
func (s Schedule) Failures() failure.Schedule {
	var out failure.Schedule
	for _, ev := range s {
		switch ev.Kind {
		case KindCrash, KindCorrelatedCrash:
			for _, r := range ev.Ranks {
				out = append(out, failure.Event{At: ev.At, Rank: r, Kind: ev.Machine})
			}
		}
	}
	if out == nil {
		return nil
	}
	return failure.Merge(out)
}

// Arm schedules every event in the schedule against the agent control
// plane. The schedule should already be sorted and validated (Build does
// both).
func Arm(engine *simclock.Engine, sys *agent.System, s Schedule) {
	for _, ev := range s {
		ev := ev
		engine.At(ev.At, func() {
			switch ev.Kind {
			case KindCrash:
				for _, r := range ev.Ranks {
					sys.InjectFailure(r, ev.Machine)
				}
			case KindCorrelatedCrash:
				sys.InjectCorrelated(ev.Machine, ev.Ranks...)
			case KindPartitionStart:
				sys.StartPartition(ev.Ranks...)
			case KindPartitionHeal:
				sys.HealPartition()
			case KindStragglerStart:
				for _, r := range ev.Ranks {
					sys.SetStraggler(r, ev.Factor)
				}
			case KindStragglerEnd:
				for _, r := range ev.Ranks {
					sys.SetStraggler(r, 1)
				}
			case KindKVOutage:
				sys.SetKVAvailable(false)
			case KindKVRestore:
				sys.SetKVAvailable(true)
			case KindLeaseJitter:
				sys.SetLeaseJitter(ev.Jitter)
			}
		})
	}
}
