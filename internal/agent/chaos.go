package agent

import (
	"fmt"
	"sort"

	"gemini/internal/chaos"
	"gemini/internal/cluster"
	"gemini/internal/kvstore"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// This file is the fault-injection surface of the control plane: network
// partitions, correlated failures, stragglers, and key-value store
// outages. Arm drives these from a chaos schedule; tests also call them
// directly.

// Arm schedules every event of a fault schedule against the system, one
// engine event each, in schedule order. The schedule should already be
// sorted and validated (chaos.Builder.Build does both).
func (s *System) Arm(sched chaos.Schedule) {
	for _, ev := range sched {
		s.engine.At(ev.At, func() {
			switch ev.Kind {
			case chaos.KindCrash:
				for _, r := range ev.Ranks {
					s.InjectFailure(r, ev.Machine)
				}
			case chaos.KindCorrelatedCrash:
				s.InjectCorrelated(ev.Machine, ev.Ranks...)
			case chaos.KindPartitionStart:
				s.StartPartition(ev.Ranks...)
			case chaos.KindPartitionHeal:
				s.HealPartition()
			case chaos.KindStragglerStart:
				for _, r := range ev.Ranks {
					s.SetStraggler(r, ev.Factor)
				}
			case chaos.KindStragglerEnd:
				for _, r := range ev.Ranks {
					s.SetStraggler(r, 1)
				}
			case chaos.KindKVOutage:
				s.SetKVAvailable(false)
			case chaos.KindKVRestore:
				s.SetKVAvailable(true)
			case chaos.KindLeaseJitter:
				s.SetLeaseJitter(ev.Jitter)
			}
		})
	}
}

// Store exposes the system's key-value store for chaos injection and
// white-box assertions.
func (s *System) Store() *kvstore.Store { return s.store }

// StartPartition cuts the given ranks off from the network: their agents
// keep running but can no longer reach the store (heartbeats lapse) or
// serve peer checkpoint fetches. Ranks accumulate across calls until
// HealPartition.
func (s *System) StartPartition(ranks ...int) {
	for _, rank := range ranks {
		s.checkRank(rank)
		s.partitioned[rank] = true
		if w := s.workers[rank]; w != nil && w.alive {
			s.hold(s.cohorts[rank])
		}
	}
	s.event(trace.CatChaos, "partition", "ranks %v isolated", ranks)
	s.scheduleSweep()
}

// HealPartition reconnects every partitioned rank. Healed agents whose
// processes never died refresh their leases immediately; agents whose
// machines failed while unreachable rejoin through the normal recovery
// path.
func (s *System) HealPartition() {
	var healed []int
	for rank, cut := range s.partitioned {
		if cut {
			healed = append(healed, rank)
			s.partitioned[rank] = false
		}
	}
	s.event(trace.CatChaos, "partition-heal", "ranks %v reconnected", healed)
	var rejoined []*worker
	for _, rank := range healed {
		w := s.workers[rank]
		switch {
		case w == nil:
			continue
		case w.alive:
			// The process survived the partition: its next heartbeat is
			// due within HeartbeatInterval, but re-publishing now closes
			// the window where the root would re-detect it as failed.
			s.rejoin(w)
		case !s.recovering && s.cluster.Machine(rank).Healthy():
			// It was declared failed and replaced/restarted while
			// unreachable, and no recovery is in flight: rejoin.
			rejoined = append(rejoined, s.startWorker(rank, w.incarnation))
		}
	}
	s.heartbeat(rejoined)
	// The root itself may have been partitioned away and deposed.
	s.engine.After(0, func() {
		if _, ok := s.election.Leader(); !ok {
			s.promoteRoot()
		}
	})
	s.scheduleSweep()
}

// SetStraggler degrades a rank's effective network bandwidth to the
// given factor in (0, 1]; factor 1 restores full speed. Peer checkpoint
// retrieval served by a straggler slows proportionally.
func (s *System) SetStraggler(rank int, factor float64) {
	s.checkRank(rank)
	if !(factor > 0 && factor <= 1) {
		panic(fmt.Sprintf("agent: straggler factor must be in (0,1], got %v", factor))
	}
	if factor == 1 {
		delete(s.stragglers, rank)
		s.event(trace.CatChaos, "straggler-end", "rank %d restored to full bandwidth", rank)
		return
	}
	s.stragglers[rank] = factor
	s.event(trace.CatChaos, "straggler", "rank %d degraded to %.0f%% bandwidth", rank, factor*100)
}

// stragglerFactor returns a rank's current bandwidth scale.
func (s *System) stragglerFactor(rank int) float64 {
	if f, ok := s.stragglers[rank]; ok {
		return f
	}
	return 1
}

// SetKVAvailable opens (false) or closes (true) a store unavailability
// window — an etcd quorum loss. While down, nobody can heartbeat, renew,
// or read, and lease TTLs freeze, so the control plane stalls rather
// than mass-declaring the cluster dead.
func (s *System) SetKVAvailable(up bool) {
	if up == s.store.Available() {
		return
	}
	if !up {
		s.store.SetAvailable(false)
		s.sweepEv.Cancel()
		s.events.InstantArgs(trace.CatChaos, "kv-outage", "key-value store unavailable")
		return
	}
	s.store.SetAvailable(true)
	s.events.InstantArgs(trace.CatChaos, "kv-restore", "key-value store available again")
	s.scheduleSweep()
}

// SetLeaseJitter adds deterministic pseudo-random extensions of up to max
// to every future lease grant and renewal, modelling clock skew between
// the agents and the store.
func (s *System) SetLeaseJitter(max simclock.Duration) {
	s.store.SetLeaseJitter(max, 1)
	s.event(trace.CatChaos, "lease-jitter", "lease expiries jittered by up to %v", max)
}

// InjectCorrelated fails several machines at the same instant with the
// same kind — a rack losing power, a placement group's switch dying.
func (s *System) InjectCorrelated(kind cluster.MachineState, ranks ...int) {
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	s.event(trace.CatChaos, "correlated-failure", "ranks %v: %v", sorted, kind)
	for _, rank := range sorted {
		s.InjectFailure(rank, kind)
	}
}

func (s *System) checkRank(rank int) {
	if rank < 0 || rank >= len(s.workers) {
		panic(fmt.Sprintf("agent: rank %d out of range [0,%d)", rank, len(s.workers)))
	}
}
