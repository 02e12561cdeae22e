package strategy

// Gemini is the paper's checkpoint scheme, extracted verbatim from the
// pre-seam agent loop: every iteration, each healthy owner replicates
// its full shard to each healthy placement holder; recovery prefers a
// consistent CPU-memory version (local or peer retrieval) and falls
// back to the remote store, retrying first when the blocker is
// reachability rather than data loss. Its decisions are pinned
// bit-identical to the hard-wired path by the golden-trace and
// determinism tests.
type Gemini struct {
	env  Env
	plan []Commit
}

// NewGemini returns the registry's "gemini" strategy.
func NewGemini() *Gemini { return &Gemini{} }

// Name implements Strategy.
func (g *Gemini) Name() string { return "gemini" }

// Active implements Strategy.
func (g *Gemini) Active() string { return "gemini" }

// Bind implements Strategy.
func (g *Gemini) Bind(env Env) { g.env = env }

// OnActivate implements Strategy. Gemini keeps no tier state to reset.
func (g *Gemini) OnActivate(int64) {}

// PlanCommit replicates every healthy owner's full shard to each of its
// healthy holders, in owner-major placement order — the exact call
// sequence of the original loop.
func (g *Gemini) PlanCommit(_ int64, healthy func(int) bool) []Commit {
	g.plan = replicate(g.plan[:0], g.env.Placement, healthy)
	return g.plan
}

// SerializeNeeded implements Strategy: GEMINI always serializes the
// resident CPU-memory checkpoints before touching them (§6.2 step 2).
func (g *Gemini) SerializeNeeded(bool) bool { return true }

// PlanRecovery walks the §3.1 storage hierarchy (memoryLadder).
func (g *Gemini) PlanRecovery(ctx RecoveryContext) Recovery { return memoryLadder(g.env, ctx) }

// OnFailure implements Strategy.
func (g *Gemini) OnFailure(int, bool) {}

// OnRecovered implements Strategy.
func (g *Gemini) OnRecovered(Outcome) {}
