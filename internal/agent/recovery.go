package agent

import (
	"fmt"
	"sort"
	"strconv"

	"gemini/internal/baselines"
	"gemini/internal/ckpt"
	"gemini/internal/cluster"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/trace"
)

// scheduleIteration arms the next training-iteration completion. The
// one iteration event is created on first use and rearmed after that:
// it is never pending here, since it either just fired or recovery
// canceled it, and a rearm takes the same sequence number a fresh event
// would, so the firing order is the same.
func (s *System) scheduleIteration() {
	if !s.training || s.recovering {
		return
	}
	s.iterStart = s.engine.Now()
	at := s.iterStart.Add(s.spec.Interval)
	if s.iterEv == (simclock.EventID{}) {
		s.iterEv = s.engine.At(at, s.iterate)
		return
	}
	s.engine.Rearm(s.iterEv, at)
}

// iterate is the iteration event: it completes the iteration armed at
// iterStart and arms the next.
func (s *System) iterate() {
	s.completeIteration()
	if s.rootTrack.Enabled() {
		s.rootTrack.SpanArgs(trace.CatAgent, "iteration", s.iterStart, s.engine.Now(),
			fmt.Sprintf("iter=%d", s.iteration))
	}
	s.scheduleIteration()
}

// completeIteration advances training by one iteration, commits the
// checkpoint work the installed strategy planned for it in the
// bookkeeping engine, and feeds the remote persistent tier on its
// cadence. (The traffic side of checkpointing is exercised
// by the training executor; the control plane tracks versions and
// placement.)
func (s *System) completeIteration() {
	s.iteration++
	iter := s.iteration
	if s.data != nil {
		s.data.Step(iter, s.healthy)
	}
	for _, c := range s.strategy.PlanCommit(iter, s.healthy) {
		switch c.Kind {
		case strategy.CommitFull:
			s.commitFull(c.Holder, c.Owner, iter)
		case strategy.CommitDelta:
			s.ckpt.CommitDelta(c.Holder, c.Owner, iter, c.Bytes)
		case strategy.CommitRefresh:
			s.ckpt.Refresh(c.Holder, c.Owner, iter)
		default:
			panic(fmt.Sprintf("agent: unknown commit kind %d", c.Kind))
		}
	}
	// The remote persistent tier commits on its own cadence, the same for
	// every strategy; the commit is recorded so recovery reads what was
	// actually written, not what the current cadence implies
	// (SetRemoteEvery may have changed it since).
	if iter%s.remoteEveryIters == 0 {
		if s.data != nil {
			if err := s.data.CheckpointRemote(iter); err != nil {
				panic(fmt.Sprintf("agent: remote checkpoint: %v", err))
			}
		}
		s.lastRemoteCommitted = iter
		s.remoteBytes += float64(s.placement.N) * s.ckpt.ShardBytes()
		s.rootTrack.Instant(trace.CatAgent, "remote-checkpoint")
	}
	// Best-effort: during a store outage the committed-iteration key lags
	// behind; recovery reads versions from the checkpoint engine, not here.
	_, _ = s.store.Put(iterationKey, strconv.FormatInt(iter, 10), 0)
	s.observeHealth(s.rootTrack)
}

// commitFull commits owner's whole shard at iteration on holder. With a
// data plane attached, statemgr first writes the replica's bytes into
// holder's CPU memory and the commit records their fingerprint, so a
// later recovery can verify exactly what was stored.
func (s *System) commitFull(holder, owner int, iteration int64) {
	var fp uint32
	if s.data != nil {
		var err error
		if fp, err = s.data.Replicate(holder, owner, iteration); err != nil {
			panic(fmt.Sprintf("agent: data-plane replication: %v", err))
		}
	}
	s.ckpt.Commit(holder, owner, iteration, fp)
}

// SetRemoteEvery overrides the remote persistent checkpoint cadence,
// which defaults to the spec's RemoteInterval rounded up to whole
// iterations.
func (s *System) SetRemoteEvery(iterations int64) {
	if iterations < 1 {
		panic(fmt.Sprintf("agent: remote cadence %d must be ≥ 1", iterations))
	}
	s.remoteEveryIters = iterations
}

// Traffic is the run's cumulative checkpoint byte movement, split by
// purpose: Replication is the steady-state commit traffic accepted by
// the checkpoint engine, Retrieval is recovery-time fetch traffic
// (peer and remote), Remote is the persistent-tier commit traffic.
type Traffic struct {
	Replication float64
	Retrieval   float64
	Remote      float64
}

// Traffic returns the bytes-moved accounting — the cost axis of the
// strategy comparison table.
func (s *System) Traffic() Traffic {
	return Traffic{
		Replication: s.ckpt.BytesReceived(),
		Retrieval:   s.retrievedBytes,
		Remote:      s.remoteBytes,
	}
}

// beginRecovery is the root agent's recovery workflow (§6.2):
//
//  1. stop training, classify the failed machines;
//  2. serialize the resident CPU-memory checkpoints (torch.save);
//  3. replace hardware-failed machines through the cloud operator;
//  4. retrieve checkpoints — local, peer, or remote fallback;
//  5. restart and warm up, then resume from the recovered iteration.
func (s *System) beginRecovery(failed []int) {
	s.recovering = true
	s.recoveryStart = s.engine.Now()
	s.iterEv.Cancel()

	hardware := make(map[int]bool)
	for _, rank := range failed {
		entry, ok := s.store.Get(failurePrefix + strconv.Itoa(rank))
		// The detector's report may have been lost to a store outage; the
		// cluster's own state is the ground-truth fallback.
		if (ok && entry.Value == cluster.HardwareFailed.String()) ||
			s.cluster.Machine(rank).State() == cluster.HardwareFailed {
			hardware[rank] = true
		}
		s.store.Delete(failurePrefix + strconv.Itoa(rank))
	}
	s.event(trace.CatAgent, "failure-detected", "ranks %v (hardware: %d)", failed, len(hardware))
	if s.rootTrack.Enabled() {
		// Step 1: the whole recovery is one span; phases nest inside it.
		s.rootTrack.BeginArgs(trace.CatAgent, "recovery",
			fmt.Sprintf("ranks=%v hardware=%d", failed, len(hardware)))
	}

	// Step 2: serialize resident checkpoints on all alive machines —
	// unless the strategy's fast tier makes the stall unnecessary (the
	// tiered strategy's GPU snapshots are already materialized). The
	// kernel's serialize phase does not depend on the recovery source.
	serialize := simclock.Duration(0)
	if s.strategy.SerializeNeeded(len(hardware) > 0) {
		serialize = s.spec.Phases(baselines.FromLocal, 0).Serialize
	}
	serStart := s.engine.Now()
	s.engine.After(serialize, func() {
		if serialize > 0 {
			s.rootTrack.Span(trace.CatAgent, "serialize", serStart, s.engine.Now())
			s.event(trace.CatAgent, "serialized", "in-memory checkpoints saved in %v", serialize)
		} else {
			s.events.InstantArgs(trace.CatAgent, "serialize-skipped", "fast-tier snapshots already materialized")
		}
		// Software-failed machines restart in place regardless of whether
		// hardware replacements are also in flight (a mixed failure must
		// not leave them down). Partition suspects are Healthy and Restart
		// is a no-op for them. A machine that failed outright after this
		// wave classified it stays down for the next wave.
		for _, rank := range failed {
			if hardware[rank] || s.cluster.Machine(rank).State() == cluster.HardwareFailed {
				continue
			}
			if err := s.cluster.Restart(rank); err != nil {
				panic(err)
			}
		}
		// Step 3: replace hardware failures (in parallel; wait for all).
		// Sorted order keeps the operator's randomized provisioning delays
		// deterministic for a given schedule.
		pending := 0
		replStart := s.engine.Now()
		proceed := func() {
			if pending != 0 {
				return
			}
			if len(hardware) > 0 {
				s.rootTrack.Span(trace.CatAgent, "replace", replStart, s.engine.Now())
			}
			s.attemptRetrieval(failed, hardware, 0)
		}
		ranks := make([]int, 0, len(hardware))
		for rank := range hardware {
			ranks = append(ranks, rank)
		}
		sort.Ints(ranks)
		for _, rank := range ranks {
			pending++
			s.operator.RequestReplacement(rank, func(delay simclock.Duration) {
				s.cluster.Replace(rank)
				s.event(trace.CatAgent, "replaced", "rank %d after %v", rank, delay)
				pending--
				proceed()
			})
		}
		if pending == 0 {
			proceed()
		}
	})
}

// attemptRetrieval asks the strategy for a recovery decision and
// executes it. The default ladder (§3.1) looks for a consistent
// checkpoint version among machines that still hold their CPU memory
// AND are reachable (not partitioned away). When the decision is a
// retryable remote fallback it retries with exponential backoff —
// partitions heal — and only after RetryMax attempts actually falls
// back to remote persistent storage.
func (s *System) attemptRetrieval(failed []int, hardware map[int]bool, attempt int) {
	// CPU-memory availability: hardware-failed machines were wiped; the
	// replacements arrive empty. Software-failed machines kept memory.
	// Partitioned survivors hold memory but cannot serve fetches.
	avail := func(rank int) bool { return !hardware[rank] && !s.partitioned[rank] }

	rec := s.strategy.PlanRecovery(strategy.RecoveryContext{
		Hardware:      len(hardware) > 0,
		Reachable:     avail,
		Surviving:     func(rank int) bool { return !hardware[rank] },
		RemoteVersion: s.lastRemoteCommitted,
	})
	if rec.Tier == strategy.TierRemote && rec.Retryable && attempt < s.opts.RetryMax {
		// Retry only helps when the blocker is reachability: if the data
		// survives somewhere beyond the partition, waiting for a heal can
		// still beat the remote fallback. If the shards are truly gone
		// (whole replica group wiped), go remote immediately.
		delay := s.opts.RetryBase * simclock.Duration(int64(1)<<uint(attempt))
		s.event(trace.CatAgent, "retry-backoff",
			"no reachable consistent version (attempt %d/%d); retrying in %v",
			attempt+1, s.opts.RetryMax, delay)
		s.engine.After(delay, func() {
			s.attemptRetrieval(failed, hardware, attempt+1)
		})
		return
	}
	// The kernel prices retrieval and warm-up (the same for every
	// source); detection and replacement emerge from the leases and the
	// cloud operator instead.
	version := rec.Version
	var retrieval simclock.Duration
	var source string
	switch rec.Tier {
	case strategy.TierGPU:
		// Fast tier: every rank resumes from its own device-resident
		// snapshot of the current iteration — no bytes move, nothing is
		// lost, and the CPU-memory checkpoints stay as they are.
		source = "gpu"
	case strategy.TierMemory:
		plan := rec.Plan
		// Partition suspects keep their own CPU memory: nothing can be
		// delivered to them now, and nothing needs to be — they rejoin
		// with their local copy when the partition heals. A machine that
		// died undetected during this recovery can't take delivery either;
		// it gets its own recovery wave. Only the rest are fetched.
		active := plan[:0:0]
		for _, r := range plan {
			if !s.partitioned[r.Rank] && s.cluster.Machine(r.Rank).Healthy() {
				active = append(active, r)
			}
		}
		plan = active
		// Peer fetches run in parallel, one shard at the kernel's peer
		// retrieval time; a peer serving several fetches serializes them
		// on its NIC, and a straggling peer serves them at a fraction of
		// its bandwidth.
		perPeer := make(map[int]int)
		for _, r := range plan {
			if r.Source == ckpt.SourceRemoteCPU {
				perPeer[r.Peer]++
			}
		}
		source = "local"
		retrieval = s.spec.Phases(baselines.FromLocal, 0).Retrieve
		if len(perPeer) > 0 {
			source = "peer"
			retrieval = 0
			shard := s.spec.Phases(baselines.FromPeer, 0).Retrieve
			for peer, c := range perPeer {
				retrieval = max(retrieval, simclock.Duration(float64(c)*float64(shard)/s.stragglerFactor(peer)))
				s.retrievedBytes += float64(c) * s.ckpt.ShardBytes()
			}
		}
		// Some survivors may hold generations newer than the common
		// version (staggered commits); drop them so the cluster resumes
		// consistently, then restore replaced machines' local replicas.
		s.ckpt.RollbackTo(version)
		if s.data != nil {
			// Move and fingerprint-verify the real shard bytes before
			// registering the restored replicas.
			if err := s.data.Recover(s.ckpt, plan, version); err != nil {
				panic(fmt.Sprintf("agent: data-plane recovery: %v", err))
			}
			if err := s.data.VerifyConsistent(version); err != nil {
				panic(fmt.Sprintf("agent: post-recovery verification: %v", err))
			}
		}
		for _, r := range plan {
			if r.Source == ckpt.SourceRemoteCPU {
				s.commitFull(r.Rank, r.Rank, version)
			}
		}
	default:
		// §6.2 case 2: a whole replica group died (or its survivors stayed
		// unreachable through every retry) — everyone reloads the newest
		// remote checkpoint through the store's aggregate bandwidth.
		if attempt > 0 {
			s.event(trace.CatAgent, "fallback-remote",
				"peer retrieval exhausted after %d attempts; falling back to persistent storage", attempt)
		}
		if s.data != nil {
			version = s.data.RemoteIteration()
		}
		retrieval = s.spec.Phases(baselines.FromRemote, 0).Retrieve
		s.retrievedBytes += float64(s.placement.N) * s.ckpt.ShardBytes()
		source = "remote"
		// The survivors' CPU-memory checkpoints are inconsistent with the
		// remote version; drop anything newer and reseed local replicas.
		s.ckpt.RollbackTo(version)
		if s.data != nil {
			if err := s.data.Recover(s.ckpt, s.ckpt.PersistentPlan(), version); err != nil {
				panic(fmt.Sprintf("agent: remote data-plane recovery: %v", err))
			}
			if err := s.data.VerifyConsistent(version); err != nil {
				panic(fmt.Sprintf("agent: post-fallback verification: %v", err))
			}
		}
		for rank := 0; rank < s.placement.N; rank++ {
			// The remote reload reaches live machines only: a rank that died
			// undetected during this recovery stays empty and is reseeded by
			// its own recovery wave once the detector catches up.
			if !s.cluster.Machine(rank).Healthy() {
				continue
			}
			if _, ok := s.ckpt.Completed(rank, rank); !ok {
				s.commitFull(rank, rank, version)
			}
		}
	}
	// Delta-based strategies pay a replay cost reconstructing full state
	// from base + deltas, on top of moving the bytes.
	retrieval += rec.ReplayTime
	rtvStart := s.engine.Now()
	s.engine.After(retrieval, func() {
		if s.rootTrack.Enabled() {
			s.rootTrack.SpanArgs(trace.CatAgent, "retrieve", rtvStart, s.engine.Now(),
				fmt.Sprintf("source=%s version=%d", source, version))
		}
		s.event(trace.CatAgent, "retrieved", "version %d from %s in %v", version, source, retrieval)
		wuStart := s.engine.Now()
		s.engine.After(s.spec.Phases(baselines.FromLocal, 0).Warmup, func() {
			s.rootTrack.Span(trace.CatAgent, "warmup", wuStart, s.engine.Now())
			// Roll back any progress past the recovered version and
			// restart agents on the failed machines.
			lostIters := s.iteration - version
			if lostIters < 0 {
				lostIters = 0
			}
			if version < s.iteration {
				s.ckpt.RollbackTo(version)
			}
			s.iteration = version
			var restarted []*worker
			for _, rank := range failed {
				if s.partitioned[rank] {
					// Still unreachable: it rejoins when the partition
					// heals, not before.
					continue
				}
				w := s.workers[rank]
				if w.alive {
					// A partition suspect that healed mid-recovery: the
					// process never died, it just needs its lease back.
					s.rejoin(w)
					continue
				}
				if !s.cluster.Machine(rank).Healthy() {
					// It failed again after this wave restarted or
					// replaced it (a healed partition suspect that
					// crashed, say). A live worker on a failed machine
					// would heartbeat forever and never be detected, so
					// it stays down: its lease lapses and the next wave
					// recovers it.
					continue
				}
				inc := w.incarnation
				if hardware[rank] {
					inc++
				}
				restarted = append(restarted, s.startWorker(rank, inc))
			}
			s.heartbeat(restarted)
			s.recovering = false
			s.recoveries++
			s.strategy.OnRecovered(s.recordRecovery(failed, source, version, lostIters, len(hardware) > 0))
			s.observeHealth(s.rootTrack)
			s.event(trace.CatAgent, "recovery-complete", "resumed at iteration %d", version)
			s.rootTrack.End() // closes the "recovery" span from beginRecovery
			// The root itself may have been among the failed; ensure a
			// root exists and training restarts.
			if _, ok := s.election.Leader(); !ok {
				s.promoteRoot()
			}
			s.scheduleIteration()
			s.scheduleSweep()
		})
	})
}
