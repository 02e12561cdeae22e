// Package chaos is the fault-injection engine layered over the
// discrete-event substrate: it builds, orders and validates a
// declarative schedule of faults — crashes, correlated (rack-level)
// crashes, network partitions, stragglers, key-value store outages,
// lease jitter — which the agent control plane arms as timed
// injections (agent.System.Arm) and the long-run simulator lowers to
// machine failures (Failures). The paper's fail-stop
// independent model (§6) is the easy case; this package exists to
// exercise the recovery paths that model hides.
package chaos

import (
	"fmt"
	"math"
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
// and restore apply to everything at once). An error names the entry
// the offending event came from.
func (s Schedule) Validate(n int) error {
	partitionOpen := false
	kvDown := false
	degraded := map[int]bool{}
	for i, ev := range s {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("chaos: chaos[%d] (%v): %s", ev.Entry, ev.Kind, fmt.Sprintf(format, args...))
		}
		if ev.At < 0 {
			return bad("at negative time %v", ev.At)
		}
		if i > 0 && ev.At < s[i-1].At {
			return fmt.Errorf("chaos: events out of order at %d (sort the schedule)", i)
		}
		for _, r := range ev.Ranks {
			if r < 0 || r >= n {
				return bad("rank %d out of range [0,%d)", r, n)
			}
		}
		switch ev.Kind {
		case KindCrash, KindCorrelatedCrash:
			if len(ev.Ranks) == 0 {
				return bad("has no target ranks")
			}
			if ev.Machine != cluster.SoftwareFailed && ev.Machine != cluster.HardwareFailed {
				return bad("has non-failure machine state %v", ev.Machine)
			}
			if ev.Kind == KindCorrelatedCrash && len(ev.Ranks) < 2 {
				return bad("correlated crash needs ≥ 2 ranks")
			}
		case KindPartitionStart:
			if len(ev.Ranks) == 0 {
				return bad("partition has no ranks")
			}
			if partitionOpen {
				return bad("opens a partition inside another partition window")
			}
			partitionOpen = true
		case KindPartitionHeal:
			if !partitionOpen {
				return bad("heals with no open partition")
			}
			partitionOpen = false
		case KindStragglerStart:
			if len(ev.Ranks) == 0 {
				return bad("straggler has no ranks")
			}
			if !(ev.Factor > 0 && ev.Factor <= 1) {
				return bad("straggler factor %v out of (0,1]", ev.Factor)
			}
			for _, r := range ev.Ranks {
				if degraded[r] {
					return bad("degrades rank %d inside another straggler window", r)
				}
				degraded[r] = true
			}
		case KindStragglerEnd:
			if len(ev.Ranks) == 0 {
				return bad("straggler end has no ranks")
			}
			// Ends sort before starts at the same instant, so a
			// zero-duration straggler fails here instead of leaving its
			// rank degraded forever.
			for _, r := range ev.Ranks {
				if !degraded[r] {
					return bad("ends a straggler on rank %d that is not degraded", r)
				}
				delete(degraded, r)
			}
		case KindKVOutage:
			if kvDown {
				return bad("opens a KV outage inside another outage window")
			}
			kvDown = true
		case KindKVRestore:
			if !kvDown {
				return bad("restores a store that is not down")
			}
			kvDown = false
		case KindLeaseJitter:
			if !(ev.Jitter >= 0) || math.IsInf(float64(ev.Jitter), 1) {
				return bad("lease jitter %v must be finite and non-negative", ev.Jitter)
			}
		default:
			return bad("has unknown kind")
		}
	}
	return nil
}

// Failures lowers the machine-killing subset of the schedule — crashes
// and correlated crashes — into a failure.Schedule for the long-run
// simulator. Partitions, stragglers, KV outages, and lease jitter have
// no analogue in runsim's §7.3 accounting and are dropped. The result
// is ordered and deduplicated through failure.AppendMerge, so a rank
// hit by a software and a hardware crash at the same instant collapses
// to one hardware failure.
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
	return failure.AppendMerge(nil, out)
}
