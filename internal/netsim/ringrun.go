package netsim

import (
	"fmt"

	"gemini/internal/simclock"
)

// RingRun executes a collective for real on the fabric, step by step:
// (N−1) rounds (2(N−1) for all-reduce) in which every participant sends
// one 1/N-slice of the payload to its ring successor, with a barrier
// between rounds — the synchronous structure NCCL's ring algorithms
// impose. It exists to validate the closed-form CollectiveTime model
// against the fluid simulator, and to measure collectives under
// contention (e.g. with checkpoint traffic in flight).
type RingRun struct {
	fabric       *Fabric
	participants []int
	kind         CollectiveKind
	totalBytes   float64
	onDone       func(*RingRun)

	started  simclock.Time
	finished simclock.Time
	step     int
	steps    int
	failed   bool
}

// StartRingRun launches the collective over the given participant nodes.
// onDone fires once, when the last step's slowest flow completes or a
// participant fails mid-collective.
func StartRingRun(fabric *Fabric, kind CollectiveKind, participants []int,
	totalBytes float64, onDone func(*RingRun)) (*RingRun, error) {
	if len(participants) < 1 {
		return nil, fmt.Errorf("netsim: ring run needs participants")
	}
	if !(totalBytes >= 0) { // also rejects NaN
		return nil, fmt.Errorf("netsim: payload must be nonnegative, got %v", totalBytes)
	}
	seen := make(map[int]bool, len(participants))
	for _, p := range participants {
		if seen[p] {
			return nil, fmt.Errorf("netsim: duplicate participant %d", p)
		}
		seen[p] = true
	}
	steps := len(participants) - 1
	if kind == AllReduce {
		steps *= 2
	}
	r := &RingRun{
		fabric:       fabric,
		participants: participants,
		kind:         kind,
		totalBytes:   totalBytes,
		onDone:       onDone,
		started:      fabric.engine.Now(),
		steps:        steps,
	}
	if steps == 0 || totalBytes == 0 {
		fabric.engine.After(0, func() { r.finish(false) })
		return r, nil
	}
	r.runStep()
	return r, nil
}

// Elapsed returns the collective's duration; valid after completion.
func (r *RingRun) Elapsed() simclock.Duration { return r.finished.Sub(r.started) }

// Failed reports whether a participant died mid-collective.
func (r *RingRun) Failed() bool { return r.failed }

func (r *RingRun) finish(failed bool) {
	r.failed = failed
	r.finished = r.fabric.engine.Now()
	if r.onDone != nil {
		cb := r.onDone
		r.onDone = nil
		cb(r)
	}
}

// runStep launches one round: every participant sends totalBytes/N to its
// successor; the round barrier releases when the slowest flow lands.
func (r *RingRun) runStep() {
	n := len(r.participants)
	slice := r.totalBytes / float64(n)
	remaining := n
	anyFailed := false
	label := fmt.Sprintf("%v-step%d", r.kind, r.step)
	// One label and one callback per round, shared by all n flows: the
	// barrier state is per-round, not per-flow. The run never hands its
	// flows out, so each goes back to the fabric once read.
	onDone := func(fl *Flow) {
		if fl.State() != FlowDone {
			anyFailed = true
		}
		fl.Release()
		remaining--
		if remaining > 0 {
			return
		}
		if anyFailed {
			r.finish(true)
			return
		}
		r.step++
		if r.step >= r.steps {
			r.finish(false)
			return
		}
		r.runStep()
	}
	for i := 0; i < n; i++ {
		src := r.participants[i]
		dst := r.participants[(i+1)%n]
		r.fabric.StartFlow(src, dst, slice, label, onDone)
	}
}
