package strategy

import "gemini/internal/simclock"

// Sparse replicates deltas instead of full shards — the MoE-style
// observation that between consecutive iterations only the touched
// experts' parameters and their optimizer states actually change. Each
// iteration, a deterministic 1/sparseTouchPeriod of the owners are
// "touched" and ship a sparseDeltaFraction-sized delta on top of the
// holder's previous committed copy; untouched owners re-stamp the
// holder's existing bytes at the new iteration for free
// (CommitRefresh). A holder whose copy fell behind the previous
// iteration (fresh replacement, post-recovery gap) takes a full resync.
// Recovery uses GEMINI's ladder but pays a fixed delta-replay cost on
// top of retrieval — the price of reconstructing a full state from
// base + deltas.
type Sparse struct {
	env  Env
	plan []Commit
}

const (
	// sparseTouchPeriod is the expert-touch cadence: owner o is touched
	// when (iteration + o) % sparseTouchPeriod == 0, so touches stagger
	// across the cluster instead of bursting.
	sparseTouchPeriod = 4
	// sparseDeltaFraction is a delta's size as a fraction of the full
	// shard.
	sparseDeltaFraction = 0.25
	// sparseReplay is the delta-replay cost added to every recovery.
	sparseReplay = 30 * simclock.Second
)

// NewSparse returns the registry's "sparse" strategy.
func NewSparse() *Sparse { return &Sparse{} }

// Name implements Strategy.
func (s *Sparse) Name() string { return "sparse" }

// Active implements Strategy.
func (s *Sparse) Active() string { return "sparse" }

// Bind implements Strategy.
func (s *Sparse) Bind(env Env) { s.env = env }

// OnActivate implements Strategy. Sparse needs no reset: its first plan
// after a dormant stretch sees stale holder copies and issues full
// resyncs on its own.
func (s *Sparse) OnActivate(int64) {}

// touched says whether owner's experts changed this iteration.
func (s *Sparse) touched(owner int, iteration int64) bool {
	return (iteration+int64(owner))%sparseTouchPeriod == 0
}

// PlanCommit ships deltas for touched owners, re-stamps untouched ones,
// and full-resyncs holders whose committed copy lags more than one
// iteration (deltas only apply on top of the immediately previous
// version).
func (s *Sparse) PlanCommit(iteration int64, healthy func(int) bool) []Commit {
	s.plan = replicate(s.plan[:0], s.env.Placement, healthy)
	for i := range s.plan {
		c := &s.plan[i]
		if newest, ok := s.env.Ckpt.Completed(c.Holder, c.Owner); !ok || newest.Iteration < iteration-1 {
			continue // no base to build on: keep the full resync
		}
		if s.touched(c.Owner, iteration) {
			c.Kind = CommitDelta
			c.Bytes = sparseDeltaFraction * s.env.Ckpt.ShardBytes()
		} else {
			c.Kind = CommitRefresh
		}
	}
	return s.plan
}

// SerializeNeeded implements Strategy: the in-memory base+delta chain
// must be serialized before recovery touches it, same as GEMINI.
func (s *Sparse) SerializeNeeded(bool) bool { return true }

// PlanRecovery walks GEMINI's ladder and charges the delta-replay cost
// on whichever tier serves the recovery.
func (s *Sparse) PlanRecovery(ctx RecoveryContext) Recovery {
	rec := memoryLadder(s.env, ctx)
	rec.ReplayTime = sparseReplay
	return rec
}

// OnFailure implements Strategy.
func (s *Sparse) OnFailure(int, bool) {}

// OnRecovered implements Strategy.
func (s *Sparse) OnRecovered(Outcome) {}
