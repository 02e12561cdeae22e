package strategy

import "slices"

// Tiered is a TierCheck-style checkpoint ladder. The fastest tier is a
// per-iteration GPU-buffer snapshot: the checkpoint daemon pins a copy
// of each rank's shard in spare GPU memory every iteration, so a pure
// software failure (process crash — the machine and its device memory
// survive) resumes from the very last iteration with no network
// retrieval and no serialize stall. The middle tier is GEMINI-style
// CPU-memory replication, but at a coarser cadence (every
// tieredCPUEvery iterations) since the GPU tier absorbs the common case;
// hardware failures lose the machine's GPU buffers and pay up to
// tieredCPUEvery-1 iterations of staleness. The remote persistent tier
// is unchanged.
type Tiered struct {
	env Env
	// gpu holds each rank's newest GPU-buffer snapshot iteration, or
	// noSnapshot. Hardware failures clear the rank's entry (device
	// memory is gone); replacements re-enter on their next completed
	// iteration.
	gpu  []int64
	plan []Commit
}

// noSnapshot marks a rank whose GPU buffer holds nothing usable.
const noSnapshot = -1

// tieredCPUEvery is the tiered strategy's CPU-memory replication
// cadence in iterations.
const tieredCPUEvery = 8

// NewTiered returns the registry's "tiered" strategy.
func NewTiered() *Tiered { return &Tiered{} }

// Name implements Strategy.
func (t *Tiered) Name() string { return "tiered" }

// Active implements Strategy.
func (t *Tiered) Active() string { return "tiered" }

// Bind implements Strategy; every GPU buffer starts empty.
func (t *Tiered) Bind(env Env) {
	t.env = env
	t.gpu = slices.Repeat([]int64{noSnapshot}, env.Placement.N)
}

// OnActivate drops stale GPU snapshots: while dormant (adaptive ran a
// different policy) the daemon was not refreshing the buffers, so
// whatever they hold is unusable.
func (t *Tiered) OnActivate(int64) {
	for rank := range t.gpu {
		t.gpu[rank] = noSnapshot
	}
}

// PlanCommit snapshots every healthy rank into its GPU buffer (free —
// device-local copy) and replicates to CPU memory on the tieredCPUEvery
// grid.
func (t *Tiered) PlanCommit(iteration int64, healthy func(int) bool) []Commit {
	for rank := range t.gpu {
		if healthy(rank) {
			t.gpu[rank] = iteration
		}
	}
	if iteration%tieredCPUEvery != 0 {
		return nil
	}
	t.plan = replicate(t.plan[:0], t.env.Placement, healthy)
	return t.plan
}

// gpuVersion reports the iteration the GPU tier can resume from: every
// rank must hold a snapshot, and all snapshots must agree (a rank that
// lagged or was replaced breaks tier consistency until its next
// completed iteration).
func (t *Tiered) gpuVersion() (int64, bool) {
	var version int64
	for rank, v := range t.gpu {
		if v == noSnapshot {
			return 0, false
		}
		if rank == 0 {
			version = v
		} else if v != version {
			return 0, false
		}
	}
	return version, len(t.gpu) > 0
}

// SerializeNeeded skips the serialize stall when the GPU tier will
// serve the recovery: the snapshots are already materialized in device
// memory, there is nothing to torch.save.
func (t *Tiered) SerializeNeeded(hardware bool) bool {
	if hardware {
		return true
	}
	_, ok := t.gpuVersion()
	return !ok
}

// PlanRecovery prefers the GPU tier for pure software failures, then
// falls down the GEMINI ladder: consistent CPU memory, then remote.
func (t *Tiered) PlanRecovery(ctx RecoveryContext) Recovery {
	if !ctx.Hardware {
		if version, ok := t.gpuVersion(); ok {
			return Recovery{Tier: TierGPU, Version: version}
		}
	}
	return memoryLadder(t.env, ctx)
}

// OnFailure wipes the rank's GPU buffer on hardware failure — device
// memory dies with the machine, and the replacement arrives empty.
func (t *Tiered) OnFailure(rank int, hardware bool) {
	if hardware {
		t.gpu[rank] = noSnapshot
	}
}

// OnRecovered implements Strategy. After a rollback the surviving GPU
// snapshots may be newer than the resumed version; drop them so the
// tier only ever offers snapshots of the current timeline.
func (t *Tiered) OnRecovered(outcome Outcome) {
	for rank, v := range t.gpu {
		if v > outcome.Version {
			t.gpu[rank] = noSnapshot
		}
	}
}
