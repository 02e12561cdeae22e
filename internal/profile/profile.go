// Package profile implements GEMINI's online profiling (§5.4): during the
// first several training iterations (20 in the paper), it timestamps
// every communication operation, derives the network idle timespans
// within an iteration, and averages them across iterations. The profile
// feeds Algorithm 2's checkpoint partitioning.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gemini/internal/simclock"
)

// Op is one recorded communication operation within an iteration,
// expressed relative to the iteration start.
type Op struct {
	Start, End simclock.Duration
}

// IterationTrace is the communication timeline of a single iteration.
type IterationTrace struct {
	Duration simclock.Duration
	Ops      []Op
}

// IdleSpans returns the gaps in the iteration where the network is idle:
// the complement of the union of op intervals within [0, Duration].
// Zero-length gaps are dropped.
func (it *IterationTrace) IdleSpans() []Span {
	spans, _ := walkIdle(nil, it.intervals(), it.Duration)
	return spans
}

// BusyTime returns the total time the network is occupied in the trace.
func (it *IterationTrace) BusyTime() simclock.Duration {
	_, busy := walkIdle(nil, it.intervals(), it.Duration)
	return busy
}

// intervals copies the trace's op times into start order.
func (it *IterationTrace) intervals() []interval {
	ivs := make([]interval, len(it.Ops))
	for i, op := range it.Ops {
		ivs[i] = interval{op.Start, op.End}
	}
	sortByStart(ivs)
	return ivs
}

type interval struct{ start, end simclock.Duration }

func sortByStart(ivs []interval) {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
}

// walkIdle is the one pass behind every idle-span derivation. It takes
// ops in start order, clips each to [0, limit], drops the empty ones,
// and merges touching or overlapping ops into busy runs as it goes. It
// appends each gap before a run, and the tail gap after the last one,
// to dst, and returns them with the summed length of the busy runs.
// Ties in start order do not change the result.
func walkIdle(dst []Span, ops []interval, limit simclock.Duration) ([]Span, simclock.Duration) {
	// The walk starts in an empty run at 0, which adds nothing to busy.
	var busy, runStart, runEnd simclock.Duration
	for _, op := range ops {
		s, e := op.start, op.end
		if e > limit {
			e = limit
		}
		if s < 0 {
			s = 0
		}
		if !(e > s) {
			continue
		}
		if s > runEnd {
			busy += runEnd - runStart
			dst = append(dst, Span{Offset: runEnd, Length: s - runEnd})
			runStart = s
		}
		if e > runEnd {
			runEnd = e
		}
	}
	busy += runEnd - runStart
	if limit > runEnd {
		dst = append(dst, Span{Offset: runEnd, Length: limit - runEnd})
	}
	return dst, busy
}

// Span is one network idle timespan within an iteration.
type Span struct {
	// Offset is where the span begins, relative to iteration start.
	Offset simclock.Duration
	// Length is the idle duration (the t_i of Algorithm 2).
	Length simclock.Duration
}

// Profile is the averaged result of online profiling.
type Profile struct {
	// Spans are the per-iteration idle timespans, averaged across the
	// profiled iterations, in time order.
	Spans []Span
	// IterationTime is the mean iteration duration.
	IterationTime simclock.Duration
	// Iterations is how many iterations were profiled.
	Iterations int
	// NormalizedStdDev is the largest coefficient of variation observed
	// across the per-span lengths — the <10% stability the paper reports.
	NormalizedStdDev float64
	// Discarded is how many recorded iterations were dropped as outliers
	// (span count differing from the modal shape). A large value means
	// the profile rests on fewer iterations than the window suggests.
	Discarded int
}

// TotalIdle returns the sum of idle span lengths per iteration.
func (p *Profile) TotalIdle() simclock.Duration {
	var total simclock.Duration
	for _, s := range p.Spans {
		total += s.Length
	}
	return total
}

// Recorder streams the profiling window: each iteration's ops go into
// a scratch buffer reused across iterations, and EndIteration folds that
// iteration's idle spans into a running sum for its span count. No
// per-iteration trace is kept.
type Recorder struct {
	window int
	iters  int // complete iterations folded in

	iterStart simclock.Time
	inIter    bool
	ops       []interval // this iteration's ops, relative to iterStart
	unsorted  bool       // an op started before its predecessor
	spans     []Span     // scratch for this iteration's idle spans
	// shapes holds one running sum per distinct span count, in order of
	// first appearance.
	shapes []shape
}

// shape sums the idle spans of every recorded iteration with the same
// span count, in recording order.
type shape struct {
	iters                  int
	iterSum                simclock.Duration
	offsets, lengths, sqrs []float64 // per span index, in seconds
}

// NewRecorder profiles up to window iterations; further iterations are
// ignored. The paper uses a 20-iteration window.
func NewRecorder(window int) (*Recorder, error) {
	if window <= 0 {
		return nil, fmt.Errorf("profile: window must be positive, got %d", window)
	}
	return &Recorder{window: window}, nil
}

// MustNewRecorder is NewRecorder for known-good windows.
func MustNewRecorder(window int) *Recorder {
	r, err := NewRecorder(window)
	if err != nil {
		panic(err)
	}
	return r
}

// Done reports whether the profiling window is full.
func (r *Recorder) Done() bool { return r.iters >= r.window }

// Iterations returns how many complete iterations have been recorded.
func (r *Recorder) Iterations() int { return r.iters }

// BeginIteration marks an iteration start at absolute time t.
func (r *Recorder) BeginIteration(t simclock.Time) {
	if r.inIter {
		panic("profile: BeginIteration without EndIteration")
	}
	r.inIter = true
	r.iterStart = t
	r.ops = r.ops[:0]
	r.unsorted = false
}

// RecordOp logs a communication op by absolute start/end times. The
// label only names the op in the panic for a backwards interval.
func (r *Recorder) RecordOp(start, end simclock.Time, label string) {
	if !r.inIter {
		panic("profile: RecordOp outside an iteration")
	}
	if end < start {
		panic(fmt.Sprintf("profile: op %q ends %v before it starts %v", label, end, start))
	}
	op := interval{start.Sub(r.iterStart), end.Sub(r.iterStart)}
	if n := len(r.ops); n > 0 && op.start < r.ops[n-1].start {
		r.unsorted = true
	}
	r.ops = append(r.ops, op)
}

// EndIteration closes the current iteration at absolute time t and folds
// its idle spans into the running sum for its span count.
func (r *Recorder) EndIteration(t simclock.Time) {
	if !r.inIter {
		panic("profile: EndIteration without BeginIteration")
	}
	r.inIter = false
	if r.Done() {
		return
	}
	r.iters++
	if r.unsorted {
		sortByStart(r.ops)
	}
	dur := t.Sub(r.iterStart)
	r.spans, _ = walkIdle(r.spans[:0], r.ops, dur)
	sh := r.shapeFor(len(r.spans))
	sh.iters++
	sh.iterSum += dur
	for i, sp := range r.spans {
		sh.offsets[i] += sp.Offset.Seconds()
		sh.lengths[i] += sp.Length.Seconds()
		sh.sqrs[i] += sp.Length.Seconds() * sp.Length.Seconds()
	}
}

// shapeFor returns the running sum for iterations with n idle spans,
// adding an empty one on first sight.
func (r *Recorder) shapeFor(n int) *shape {
	for i := range r.shapes {
		if len(r.shapes[i].lengths) == n {
			return &r.shapes[i]
		}
	}
	r.shapes = append(r.shapes, shape{
		offsets: make([]float64, n),
		lengths: make([]float64, n),
		sqrs:    make([]float64, n),
	})
	return &r.shapes[len(r.shapes)-1]
}

// Build averages the recorded iterations into a Profile. It requires at
// least one complete iteration. Iterations are assumed to share the same
// communication shape (§5.4 observes the timeline is nearly constant);
// spans are matched by index, and iterations whose span count differs
// from the most common one are discarded as outliers. A tie between
// span counts keeps the larger count.
func (r *Recorder) Build() (*Profile, error) {
	if r.iters == 0 {
		return nil, fmt.Errorf("profile: no complete iterations recorded")
	}
	modal := &r.shapes[0]
	for i := range r.shapes {
		sh := &r.shapes[i]
		if sh.iters > modal.iters || (sh.iters == modal.iters && len(sh.lengths) > len(modal.lengths)) {
			modal = sh
		}
	}
	used := modal.iters
	prof := &Profile{Iterations: used, Discarded: r.iters - used}
	n := float64(used)
	prof.IterationTime = modal.iterSum / simclock.Duration(n)
	for i := range modal.lengths {
		mean := modal.lengths[i] / n
		prof.Spans = append(prof.Spans, Span{
			Offset: simclock.Duration(modal.offsets[i] / n),
			Length: simclock.Duration(mean),
		})
		if mean > 0 && n > 1 {
			variance := math.Max(0, modal.sqrs[i]/n-mean*mean)
			if cv := math.Sqrt(variance) / mean; cv > prof.NormalizedStdDev {
				prof.NormalizedStdDev = cv
			}
		}
	}
	return prof, nil
}
