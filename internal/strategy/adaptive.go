package strategy

import (
	"fmt"

	"gemini/internal/simclock"
)

// Adaptive is a Chameleon-style meta-strategy: it runs one of the fixed
// policies at a time and re-evaluates the choice at every iteration
// boundary from the observed recovery stream — the same Outcome
// records the control plane keeps. The decision rule over the last
// adaptiveWindow recoveries:
//
//   - failures are rare (observed MTBF ≥ adaptiveQuietIters iterations)
//     → sparse: minimize steady-state replication traffic, recovery is
//     an edge case;
//   - failures are frequent and mostly software → tiered: the GPU tier
//     turns the dominant failure mode into zero-loss, no-stall restarts;
//   - failures are frequent and hardware-heavy → gemini: full CPU
//     replication every iteration minimizes staleness when machines
//     (and their GPU buffers) actually die.
//
// Every switch is emitted through Env.Emit ("strategy-switch"), which
// the agent records as a run-log event, a trace instant, and a
// strategy.switches counter tick.
type Adaptive struct {
	env Env
	// subs holds the sub-strategies at the adaptive* indices.
	subs   [3]Strategy
	active int
	obs    []Outcome
}

const (
	// adaptiveWindow is how many recent recoveries the rule looks at.
	adaptiveWindow = 8
	// adaptiveQuietIters is the observed-MTBF threshold, in iterations,
	// separating "failures are an edge case" from "failures are the
	// workload".
	adaptiveQuietIters = 200
)

// Sub-strategy indices into Adaptive.subs.
const (
	adaptiveGemini = iota
	adaptiveTiered
	adaptiveSparse
)

// NewAdaptive returns the registry's "adaptive" strategy, starting on
// gemini until observations argue otherwise.
func NewAdaptive() *Adaptive {
	return &Adaptive{subs: [3]Strategy{
		adaptiveGemini: NewGemini(),
		adaptiveTiered: NewTiered(),
		adaptiveSparse: NewSparse(),
	}}
}

// Name implements Strategy.
func (a *Adaptive) Name() string { return "adaptive" }

// Active returns the sub-strategy currently in force.
func (a *Adaptive) Active() string { return a.subs[a.active].Name() }

// Bind implements Strategy.
func (a *Adaptive) Bind(env Env) {
	a.env = env
	for _, sub := range a.subs {
		sub.Bind(env)
	}
}

// OnActivate implements Strategy.
func (a *Adaptive) OnActivate(iteration int64) { a.subs[a.active].OnActivate(iteration) }

// window returns the last adaptiveWindow observations.
func (a *Adaptive) window() []Outcome {
	if len(a.obs) <= adaptiveWindow {
		return a.obs
	}
	return a.obs[len(a.obs)-adaptiveWindow:]
}

// signals computes the decision inputs over the window: observed mean
// time between recoveries and the hardware fraction.
func (a *Adaptive) signals() (mtbf simclock.Duration, hwFrac float64, ok bool) {
	w := a.window()
	if len(w) < 2 {
		return 0, 0, false
	}
	span := w[len(w)-1].Resumed.Sub(w[0].Resumed)
	mtbf = span / simclock.Duration(len(w)-1)
	hw := 0
	for _, o := range w {
		if o.Hardware {
			hw++
		}
	}
	return mtbf, float64(hw) / float64(len(w)), true
}

// decide picks the sub-strategy index the rule wants right now; with
// fewer than two observations it keeps the current one.
func (a *Adaptive) decide() int {
	mtbf, hwFrac, ok := a.signals()
	if !ok {
		return a.active
	}
	switch {
	case mtbf >= adaptiveQuietIters*a.env.IterationTime:
		return adaptiveSparse
	case hwFrac < 0.5:
		return adaptiveTiered
	default:
		return adaptiveGemini
	}
}

// PlanCommit re-evaluates the policy choice (iteration boundaries are
// the only switch points — never mid-recovery) and delegates.
func (a *Adaptive) PlanCommit(iteration int64, healthy func(int) bool) []Commit {
	if want := a.decide(); want != a.active {
		mtbf, hwFrac, _ := a.signals()
		from, to := a.subs[a.active].Name(), a.subs[want].Name()
		a.active = want
		a.subs[a.active].OnActivate(iteration)
		a.env.Emit("strategy-switch",
			fmt.Sprintf("from=%s to=%s iter=%d mtbf=%.0fs hw-frac=%.2f", from, to, iteration, mtbf.Seconds(), hwFrac))
	}
	return a.subs[a.active].PlanCommit(iteration, healthy)
}

// SerializeNeeded delegates to the policy in force.
func (a *Adaptive) SerializeNeeded(hardware bool) bool {
	return a.subs[a.active].SerializeNeeded(hardware)
}

// PlanRecovery delegates to the policy in force.
func (a *Adaptive) PlanRecovery(ctx RecoveryContext) Recovery {
	return a.subs[a.active].PlanRecovery(ctx)
}

// OnFailure fans out to every sub-strategy: physical tier state (GPU
// buffers) is lost whether or not its policy is active.
func (a *Adaptive) OnFailure(rank int, hardware bool) {
	for _, sub := range a.subs {
		sub.OnFailure(rank, hardware)
	}
}

// OnRecovered records the observation and fans out.
func (a *Adaptive) OnRecovered(outcome Outcome) {
	a.obs = append(a.obs, outcome)
	if len(a.obs) > 4*adaptiveWindow {
		a.obs = append(a.obs[:0:0], a.obs[len(a.obs)-adaptiveWindow:]...)
	}
	for _, sub := range a.subs {
		sub.OnRecovered(outcome)
	}
}
