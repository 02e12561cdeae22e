package training

import (
	"fmt"
	"strconv"
	"sync"

	"gemini/internal/netsim"
	"gemini/internal/profile"
	"gemini/internal/simclock"
)

// OpKind classifies timeline operations.
type OpKind int

const (
	// OpAllGather is a ZeRO-3 parameter all-gather (network).
	OpAllGather OpKind = iota
	// OpReduceScatter is a gradient reduce-scatter (network).
	OpReduceScatter
	// OpCompute is a forward/backward compute step (GPU).
	OpCompute
	// OpUpdate is the optimizer step at iteration end (GPU, no network).
	OpUpdate
)

func (k OpKind) String() string {
	switch k {
	case OpAllGather:
		return "all-gather"
	case OpReduceScatter:
		return "reduce-scatter"
	case OpCompute:
		return "compute"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// TimedOp is one operation in the per-iteration timeline, with times
// relative to iteration start.
type TimedOp struct {
	Kind       OpKind
	Start, End simclock.Duration
	Label      string
	// Bytes is the network payload for communication ops (the logical
	// collective size, before the efficiency inflation).
	Bytes float64
}

// Timeline is the analytic per-iteration schedule of one machine. All
// machines run the same timeline (static synchronous training).
type Timeline struct {
	Config    Config
	Ops       []TimedOp
	Iteration simclock.Duration
}

// prefetchDepth is how many layers ahead the communication stream may run
// past compute — ZeRO-3's parameter prefetch window.
const prefetchDepth = 2

// stepLabels holds the interned labels of one of a ZeRO-3 iteration's
// 2L compute steps: its compute, the parameter all-gather it waits for,
// and, for a backward step, its layer's gradient reduce-scatter.
type stepLabels struct {
	compute, allGather string
	reduceScatter      string // empty for a forward step
}

var (
	labelMu    sync.Mutex
	labelCache = map[int][]stepLabels{}
)

// labelsFor returns the step labels of a layers-deep iteration in step
// order: forward through layers 0..L−1, then backward through layers
// L−1..0, so step c is layer c forward and layer 2L−1−c backward.
// Labels depend only on the depth, never on the config, so they are
// built once per distinct depth and shared by every timeline and
// executor run — repeated BuildTimeline calls (config sweeps, placement
// tables, stress campaigns) allocate no label strings. The returned
// slice is a read-only snapshot; strings are immutable and safe to share
// across goroutines.
func labelsFor(layers int) []stepLabels {
	labelMu.Lock()
	defer labelMu.Unlock()
	steps, ok := labelCache[layers]
	if !ok {
		steps = make([]stepLabels, 2*layers)
		for l := 0; l < layers; l++ {
			n := strconv.Itoa(l)
			steps[l] = stepLabels{compute: "fwd" + n, allGather: "ag-fwd" + n}
			steps[2*layers-1-l] = stepLabels{compute: "bwd" + n, allGather: "ag-bwd" + n, reduceScatter: "rs-bwd" + n}
		}
		labelCache[layers] = steps
	}
	return steps
}

// BuildTimeline derives the iteration timeline: labelsFor's 2L steps,
// each a parameter all-gather then compute, a backward step's gradient
// reduce-scatter after it, and the communication-free optimizer update
// at the end.
func BuildTimeline(cfg Config) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layers := cfg.Model.Layers
	layerBytes := cfg.Model.LayerFP16Bytes()
	agTime := cfg.layerCollective(netsim.AllGather)
	rsTime := cfg.layerCollective(netsim.ReduceScatter)
	fwd, bwd := cfg.layerCompute()

	// 2L all-gathers + 2L computes + L reduce-scatters + 1 update.
	tl := &Timeline{Config: cfg, Ops: make([]TimedOp, 0, 5*layers+1)}
	var commFree, compFree simclock.Duration
	compStarts := make([]simclock.Duration, 0, 2*layers)

	// Reduce-scatters become ready as their layer's backward compute
	// finishes; they are queued on the comm stream in order, interleaved
	// with all-gathers. We model one in-order comm stream: an op starts at
	// max(commFree, ready time). The queue is drained via an index head —
	// the backing array (capacity L, allocated once) is never re-sliced
	// per op.
	type pendingRS struct {
		ready simclock.Duration
		label string
	}
	rsQueue := make([]pendingRS, 0, layers)
	rsHead := 0

	flushRS := func(before simclock.Duration) {
		// Issue queued reduce-scatters that are ready before the given
		// horizon (the next all-gather's earliest start).
		for rsHead < len(rsQueue) {
			rs := rsQueue[rsHead]
			start := maxDur(commFree, rs.ready)
			if before >= 0 && start >= before {
				return
			}
			end := start + rsTime
			tl.Ops = append(tl.Ops, TimedOp{Kind: OpReduceScatter, Start: start, End: end, Label: rs.label, Bytes: layerBytes})
			commFree = end
			rsHead++
		}
	}

	for i, st := range labelsFor(layers) {
		// Prefetch limit: the all-gather of step i may not start before
		// compute of step i−prefetchDepth has started.
		var gate simclock.Duration
		if i >= prefetchDepth {
			gate = compStarts[i-prefetchDepth]
		}
		flushRS(maxDur(commFree, gate))
		agStart := maxDur(commFree, gate)
		agEnd := agStart + agTime
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpAllGather, Start: agStart, End: agEnd, Label: st.allGather, Bytes: layerBytes})
		commFree = agEnd

		compute := fwd
		if i >= layers {
			compute = bwd
		}
		compStart := maxDur(compFree, agEnd)
		compEnd := compStart + compute
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpCompute, Start: compStart, End: compEnd, Label: st.compute})
		compStarts = append(compStarts, compStart)
		compFree = compEnd

		// A lone machine has nothing to reduce.
		if i >= layers && rsTime > 0 {
			rsQueue = append(rsQueue, pendingRS{ready: compEnd, label: st.reduceScatter})
		}
	}
	flushRS(-1)

	// Optimizer update needs all gradients reduced: start after both
	// streams drain.
	updStart := maxDur(compFree, commFree)
	updEnd := updStart + cfg.updatePhase()
	tl.Ops = append(tl.Ops, TimedOp{Kind: OpUpdate, Start: updStart, End: updEnd, Label: "update"})
	tl.Iteration = updEnd
	return tl, nil
}

// MustBuildTimeline is BuildTimeline for known-good configs.
func MustBuildTimeline(cfg Config) *Timeline {
	tl, err := BuildTimeline(cfg)
	if err != nil {
		panic(err)
	}
	return tl
}

func maxDur(a, b simclock.Duration) simclock.Duration {
	if a > b {
		return a
	}
	return b
}

// CommOps returns the network operations of the timeline, in start order.
// It builds a fresh slice per call; loops over many iterations should
// call it once and reuse the result (ProfileWithJitter does).
func (tl *Timeline) CommOps() []TimedOp {
	n := 0
	for _, op := range tl.Ops {
		if op.Kind == OpAllGather || op.Kind == OpReduceScatter {
			n++
		}
	}
	out := make([]TimedOp, 0, n)
	for _, op := range tl.Ops {
		if op.Kind == OpAllGather || op.Kind == OpReduceScatter {
			out = append(out, op)
		}
	}
	return out
}

// Trace converts the timeline to a profiler iteration trace.
func (tl *Timeline) Trace() profile.IterationTrace {
	tr := profile.IterationTrace{Duration: tl.Iteration}
	for _, op := range tl.CommOps() {
		tr.Ops = append(tr.Ops, profile.Op{Start: op.Start, End: op.End})
	}
	return tr
}

// IdleTime returns the network idle time within the iteration.
func (tl *Timeline) IdleTime() simclock.Duration {
	tr := tl.Trace()
	return tl.Iteration - tr.BusyTime()
}

// Profile runs the §5.4 online profiling over the analytic timeline:
// it records `window` identical iterations and builds the averaged
// profile that feeds Algorithm 2.
func (tl *Timeline) Profile(window int) (*profile.Profile, error) {
	return tl.ProfileWithJitter(window, 0, 0)
}

// ProfileWithJitter profiles `window` iterations whose communication ops
// are stretched by a deterministic pseudo-random factor within ±frac —
// the cross-iteration variance §5.4 measures (<10% normalized standard
// deviation) and Algorithm 2's γ coefficient guards against.
func (tl *Timeline) ProfileWithJitter(window int, frac float64, seed int64) (*profile.Profile, error) {
	if !(frac >= 0 && frac < 1) { // NaN fails too
		return nil, fmt.Errorf("training: jitter fraction %v out of [0,1)", frac)
	}
	rec, err := profile.NewRecorder(window)
	if err != nil {
		return nil, err
	}
	rng := newJitterSource(seed)
	// The timeline's op list is immutable: derive the comm ops once for
	// the whole window instead of rebuilding the slice every iteration.
	comm := tl.CommOps()
	var t simclock.Time
	for i := 0; i < window; i++ {
		// One stretch factor per iteration: the timeline's shape is
		// stable, only its pace varies (§5.4's observation).
		stretch := 1.0
		if frac > 0 {
			stretch = 1 + frac*(2*rng.next()-1)
		}
		rec.BeginIteration(t)
		var end simclock.Duration
		for _, op := range comm {
			s := simclock.Duration(float64(op.Start) * stretch)
			e := simclock.Duration(float64(op.End) * stretch)
			rec.RecordOp(t.Add(s), t.Add(e), op.Label)
			if e > end {
				end = e
			}
		}
		iterLen := simclock.Duration(float64(tl.Iteration) * stretch)
		if iterLen < end {
			iterLen = end
		}
		t = t.Add(iterLen)
		rec.EndIteration(t)
	}
	return rec.Build()
}

// jitterSource is a tiny deterministic uniform-[0,1) generator
// (SplitMix64-based), stable across Go releases.
type jitterSource struct{ state uint64 }

func newJitterSource(seed int64) *jitterSource {
	return &jitterSource{state: uint64(seed)*0x9E3779B97F4A7C15 + 1}
}

func (j *jitterSource) next() float64 {
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
