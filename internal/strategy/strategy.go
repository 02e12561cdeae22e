// Package strategy is the pluggable checkpoint-policy seam of the
// recovery control plane. A Strategy owns the decisions the agent loop
// used to hard-wire to GEMINI's scheme: which (holder, owner) pairs
// commit each iteration and how (the per-iteration commit plan),
// whether a failure needs the serialize stall, and which storage tier a
// recovery reads from. The agent keeps the mechanism — leases,
// detection, retries, event scheduling, rollback, and the remote
// persistent tier's cadence — and asks the installed strategy for
// policy at each decision point.
//
// Four strategies ship in the registry:
//
//   - gemini: the paper's scheme, extracted unchanged — full replication
//     to every placement holder each iteration, peer retrieval, remote
//     fallback (bit-identical to the pre-seam control plane).
//   - tiered: a TierCheck-style ladder — per-iteration GPU-buffer
//     snapshots (daemon-held, surviving software failures), a coarser
//     CPU-memory cadence, and the remote tier; software failures recover
//     from the GPU tier with zero lost iterations and no serialize stall.
//   - sparse: delta/changed-shards-only replication for MoE-like models —
//     only shards whose experts were touched this iteration move bytes,
//     at a small delta-replay cost on recovery.
//   - adaptive: a Chameleon-style meta-strategy that watches the observed
//     failure stream (MTBF, hardware fraction) and switches among the
//     three at iteration boundaries, recording every switch.
//
// Strategies are deterministic and single-run: give each run a fresh
// instance (strategy.New) and bind it to the run's engine state.
package strategy

import (
	"fmt"

	"gemini/internal/ckpt"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// Env binds a strategy to one run's control surface. The checkpoint
// engine and placement are shared with the agent system; Emit routes
// strategy-level events (e.g. adaptive switches) into the run's event
// log, trace, and metrics.
type Env struct {
	// Ckpt is the run's checkpoint bookkeeping engine.
	Ckpt *ckpt.Engine
	// Placement is the Algorithm 1 replica placement.
	Placement *placement.Placement
	// IterationTime is the training iteration duration — the unit
	// cadences and MTBF thresholds scale with.
	IterationTime simclock.Duration
	// Emit records a strategy-level event. Never nil once bound.
	Emit func(event, detail string)
}

// CommitKind says how one (holder, owner) pair commits this iteration.
type CommitKind int

const (
	// CommitFull moves the whole shard (ckpt.Engine.Commit).
	CommitFull CommitKind = iota
	// CommitDelta moves only Bytes of delta on top of the holder's
	// previous committed copy; the result is a full logical copy at the
	// new iteration (ckpt.Engine.CommitDelta).
	CommitDelta
	// CommitRefresh moves nothing: the shard did not change, so the
	// holder's existing bytes ARE the new version and are re-stamped
	// (ckpt.Engine.Refresh).
	CommitRefresh
)

// Commit is one (holder, owner) replication instruction.
type Commit struct {
	Holder, Owner int
	Kind          CommitKind
	// Bytes is the network traffic of a CommitDelta; ignored for
	// CommitFull (the full shard size) and CommitRefresh (zero).
	Bytes float64
}

// Tier is the storage tier a recovery reads from.
type Tier int

const (
	// TierMemory recovers from CPU memory (local or peer), driven by a
	// per-rank retrieval plan.
	TierMemory Tier = iota
	// TierGPU recovers from per-machine GPU-buffer snapshots: zero
	// network bytes, zero lost iterations (tiered strategy).
	TierGPU
	// TierRemote reloads everyone from the remote persistent store.
	TierRemote
)

func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierGPU:
		return "gpu"
	case TierRemote:
		return "remote"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// RecoveryContext is what the agent knows when it asks for a recovery
// decision.
type RecoveryContext struct {
	// Hardware says at least one failed rank needs machine replacement.
	Hardware bool
	// Reachable reports ranks whose CPU memory survived AND can serve
	// fetches right now (not partitioned away).
	Reachable func(int) bool
	// Surviving reports ranks whose CPU memory survived, reachable or
	// not — the basis of the is-waiting-worth-it retry check.
	Surviving func(int) bool
	// RemoteVersion is the newest iteration actually committed to the
	// remote persistent tier.
	RemoteVersion int64
}

// Recovery is a strategy's recovery-source decision.
type Recovery struct {
	Tier    Tier
	Version int64
	// Plan carries the per-rank retrieval instructions for TierMemory.
	Plan []ckpt.Retrieval
	// Retryable (TierRemote only) says waiting could still surface a
	// memory-tier recovery — e.g. the holders are partitioned, not dead.
	Retryable bool
	// ReplayTime is extra restore cost charged on top of retrieval
	// (sparse delta replay); zero for plain full-copy strategies.
	ReplayTime simclock.Duration
}

// Outcome is one completed recovery's Eq. 1 accounting: the wall-clock
// window from detection to resumption (TRecovery) plus the
// recomputation debt of rolling back to the recovered version (TLost).
// The control plane records it and reports it back to the strategy.
type Outcome struct {
	// Detected is when the root agent began recovery; Resumed is when
	// training restarted.
	Detected, Resumed simclock.Time
	// Ranks are the machines the root declared failed.
	Ranks []int
	// Source is the tier recovery read from: gpu, local, peer, remote.
	Source string
	// Version is the iteration training resumed from.
	Version int64
	// LostIterations is how many committed iterations the rollback
	// discarded (Eq. 1's lost progress).
	LostIterations int64
	// TLost is the recomputation cost of those iterations; TRecovery is
	// the detection-to-resumption downtime.
	TLost, TRecovery simclock.Duration
	// Hardware says the wave included at least one machine replacement.
	Hardware bool
}

// Wasted returns the recovery's total Eq. 1 wasted time.
func (o Outcome) Wasted() simclock.Duration { return o.TLost + o.TRecovery }

// Strategy owns checkpoint placement/cadence, commit behavior, and the
// recovery-source policy for one run. Implementations must be
// deterministic: the same call sequence yields the same decisions.
type Strategy interface {
	// Name is the registry name.
	Name() string
	// Active is the concrete policy currently in force — Name() for
	// fixed strategies, the selected sub-strategy for adaptive.
	Active() string
	// Bind attaches the strategy to a run. Called once, before Start.
	Bind(env Env)
	// OnActivate tells the strategy it just became the policy in force
	// at the given iteration (adaptive switches); tier state that decays
	// while dormant (GPU buffers) resets here.
	OnActivate(iteration int64)
	// PlanCommit returns the replication work for a completed iteration;
	// the commits execute in order against the checkpoint engine. The
	// plan lives in a buffer the strategy reuses, so it is valid only
	// until the next PlanCommit call.
	PlanCommit(iteration int64, healthy func(int) bool) []Commit
	// SerializeNeeded says whether a failure wave needs the pre-recovery
	// serialize stall (torch.save of the in-memory checkpoints); hardware
	// says the wave includes a machine replacement.
	SerializeNeeded(hardware bool) bool
	// PlanRecovery chooses the recovery tier, version, and plan.
	PlanRecovery(ctx RecoveryContext) Recovery
	// OnFailure reports a machine failure the instant it happens
	// (physical tier state like GPU buffers is lost here, before
	// detection).
	OnFailure(rank int, hardware bool)
	// OnRecovered reports a completed recovery's accounting — the
	// adaptive controller's observation stream.
	OnRecovered(outcome Outcome)
}

// replicate appends to dst a CommitFull for every (holder, owner) pair
// whose ranks are both healthy, in owner-major placement order —
// GEMINI's per-iteration replication walk, which every strategy starts
// from. Strategies pass their own plan buffer, emptied, as dst.
func replicate(dst []Commit, p *placement.Placement, healthy func(int) bool) []Commit {
	for owner := 0; owner < p.N; owner++ {
		if !healthy(owner) {
			continue
		}
		for _, holder := range p.Replicas(owner) {
			if healthy(holder) {
				dst = append(dst, Commit{Holder: holder, Owner: owner, Kind: CommitFull})
			}
		}
	}
	return dst
}

// memoryLadder walks the §3.1 storage hierarchy below the GPU: a
// consistent version among reachable CPU memories wins; otherwise fall
// back to the remote store, retryable iff the data still survives
// beyond the partition.
func memoryLadder(env Env, ctx RecoveryContext) Recovery {
	version, ok := env.Ckpt.ConsistentVersion(ctx.Reachable)
	if !ok {
		_, healable := env.Ckpt.ConsistentVersion(ctx.Surviving)
		return Recovery{Tier: TierRemote, Version: ctx.RemoteVersion, Retryable: healable}
	}
	plan, err := env.Ckpt.PlanRecovery(version, ctx.Reachable)
	if err != nil {
		panic(fmt.Sprintf("strategy: consistent version %d but no plan: %v", version, err))
	}
	return Recovery{Tier: TierMemory, Version: version, Plan: plan}
}

// registry lists the named strategy factories, sorted by name: a
// strategy's index here is its stable numeric encoding (Index).
// Factories return fresh, unbound instances — strategies are stateful
// and single-run.
var registry = [...]struct {
	name string
	new  func() Strategy
}{
	{"adaptive", func() Strategy { return NewAdaptive() }},
	{"gemini", func() Strategy { return NewGemini() }},
	{"sparse", func() Strategy { return NewSparse() }},
	{"tiered", func() Strategy { return NewTiered() }},
}

// New returns a fresh instance of the named strategy.
func New(name string) (Strategy, error) {
	if i := Index(name); i >= 0 {
		return registry[i].new(), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (registered: %v)", name, Names())
}

// MustNew is New for known-good names.
func MustNew(name string) Strategy {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// Index returns the name's position in Names(), or -1 — the stable
// numeric encoding behind the strategy.active gauge.
func Index(name string) int {
	for i, r := range registry {
		if r.name == name {
			return i
		}
	}
	return -1
}
