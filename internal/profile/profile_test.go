package profile

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gemini/internal/simclock"
)

func TestIdleSpansSimple(t *testing.T) {
	tr := IterationTrace{
		Duration: 10,
		Ops: []Op{
			{Start: 1, End: 3},
			{Start: 5, End: 6},
		},
	}
	spans := tr.IdleSpans()
	want := []Span{{0, 1}, {3, 2}, {6, 4}}
	if len(spans) != len(want) {
		t.Fatalf("spans %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, spans[i], want[i])
		}
	}
	if bt := tr.BusyTime(); bt != 3 {
		t.Fatalf("busy time %v, want 3", bt)
	}
}

func TestIdleSpansMergeOverlaps(t *testing.T) {
	tr := IterationTrace{
		Duration: 10,
		Ops: []Op{
			{Start: 0, End: 4},
			{Start: 2, End: 5},  // overlaps
			{Start: 5, End: 7},  // adjacent
			{Start: 9, End: 15}, // clipped to duration
		},
	}
	spans := tr.IdleSpans()
	want := []Span{{7, 2}}
	if len(spans) != 1 || spans[0] != want[0] {
		t.Fatalf("spans %v, want %v", spans, want)
	}
	if bt := tr.BusyTime(); bt != 8 {
		t.Fatalf("busy time %v, want 8", bt)
	}
}

func TestIdleSpansFullyBusyAndFullyIdle(t *testing.T) {
	busy := IterationTrace{Duration: 5, Ops: []Op{{Start: 0, End: 5}}}
	if spans := busy.IdleSpans(); len(spans) != 0 {
		t.Fatalf("fully busy iteration has idle spans %v", spans)
	}
	idle := IterationTrace{Duration: 5}
	spans := idle.IdleSpans()
	if len(spans) != 1 || spans[0] != (Span{0, 5}) {
		t.Fatalf("fully idle iteration spans %v", spans)
	}
}

func TestRecorderLifecyclePanics(t *testing.T) {
	r := MustNewRecorder(5)
	for _, fn := range []func(){
		func() { r.RecordOp(0, 1, "x") },
		func() { r.EndIteration(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("op outside iteration did not panic")
				}
			}()
			fn()
		}()
	}
	r.BeginIteration(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested BeginIteration did not panic")
			}
		}()
		r.BeginIteration(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("backwards op did not panic")
			}
		}()
		r.RecordOp(5, 2, "x")
	}()
}

func TestRecorderAveragesAcrossIterations(t *testing.T) {
	r := MustNewRecorder(20)
	// Two iterations with the same shape but slightly different lengths.
	for i := 0; i < 2; i++ {
		base := simclock.Time(i * 100)
		jitter := simclock.Duration(i) // 0 then 1
		r.BeginIteration(base)
		r.RecordOp(base.Add(1), base.Add(3+jitter), "comm1")
		r.RecordOp(base.Add(6), base.Add(8), "comm2")
		r.EndIteration(base.Add(10))
	}
	prof, err := r.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if prof.Iterations != 2 {
		t.Fatalf("iterations %d, want 2", prof.Iterations)
	}
	if prof.IterationTime != 10 {
		t.Fatalf("iteration time %v, want 10", prof.IterationTime)
	}
	// Spans: [0,1), [3+j,6), [8,10) → averaged middle span = (3+2.5... )
	if len(prof.Spans) != 3 {
		t.Fatalf("spans %v, want 3 spans", prof.Spans)
	}
	if prof.Spans[0].Length != 1 {
		t.Errorf("span 0 length %v, want 1", prof.Spans[0].Length)
	}
	if got := prof.Spans[1].Length; math.Abs(got.Seconds()-2.5) > 1e-9 {
		t.Errorf("span 1 length %v, want 2.5 (mean of 3 and 2)", got)
	}
	if got := prof.TotalIdle(); math.Abs(got.Seconds()-5.5) > 1e-9 {
		t.Errorf("total idle %v, want 5.5", got)
	}
	if prof.NormalizedStdDev <= 0 || prof.NormalizedStdDev > 0.5 {
		t.Errorf("normalized stddev %v out of plausible range", prof.NormalizedStdDev)
	}
}

func TestRecorderWindowCapsTraces(t *testing.T) {
	r := MustNewRecorder(3)
	for i := 0; i < 6; i++ {
		base := simclock.Time(i * 10)
		r.BeginIteration(base)
		r.RecordOp(base.Add(1), base.Add(2), "c")
		r.EndIteration(base.Add(10))
		if i >= 2 && !r.Done() {
			t.Fatalf("recorder not done after %d iterations", i+1)
		}
	}
	if r.Iterations() != 3 {
		t.Fatalf("recorded %d iterations, want 3", r.Iterations())
	}
}

func TestRecorderDiscardsOutlierShapes(t *testing.T) {
	r := MustNewRecorder(10)
	// Three iterations with 2 idle spans, one outlier with 1.
	for i := 0; i < 3; i++ {
		base := simclock.Time(i * 10)
		r.BeginIteration(base)
		r.RecordOp(base.Add(2), base.Add(4), "c")
		r.EndIteration(base.Add(10))
	}
	r.BeginIteration(100)
	r.RecordOp(100, 104, "weird")
	r.EndIteration(110)
	prof, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	if prof.Iterations != 3 {
		t.Fatalf("used %d iterations, want 3 (outlier dropped)", prof.Iterations)
	}
	if prof.Discarded != 1 {
		t.Fatalf("Discarded = %d, want 1", prof.Discarded)
	}
	if len(prof.Spans) != 2 {
		t.Fatalf("spans %v, want 2", prof.Spans)
	}
}

func TestBuildReportsDiscardCounts(t *testing.T) {
	cases := []struct {
		name               string
		shapes             []int // idle-span count per recorded iteration
		wantUsed, wantDrop int
	}{
		{"uniform", []int{2, 2, 2}, 3, 0},
		{"single iteration", []int{1}, 1, 0},
		{"one outlier", []int{2, 2, 1}, 2, 1},
		{"majority outvoted", []int{3, 1, 1}, 2, 1},
		{"tie keeps larger count", []int{2, 2, 1, 1}, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNewRecorder(len(tc.shapes))
			for i, spans := range tc.shapes {
				base := simclock.Time(i * 100)
				r.BeginIteration(base)
				// spans idle gaps need spans ops splitting [0, 100): op k
				// covers [10k, 10k+5), leaving a gap after each op and
				// none before the first (op 0 starts at 0).
				for k := 0; k < spans; k++ {
					r.RecordOp(base.Add(simclock.Duration(10*k)), base.Add(simclock.Duration(10*k+5)), "c")
				}
				r.EndIteration(base.Add(simclock.Duration(10 * spans)))
			}
			prof, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			if prof.Iterations != tc.wantUsed || prof.Discarded != tc.wantDrop {
				t.Fatalf("used/discarded = %d/%d, want %d/%d",
					prof.Iterations, prof.Discarded, tc.wantUsed, tc.wantDrop)
			}
		})
	}
}

func TestBuildRequiresData(t *testing.T) {
	r := MustNewRecorder(5)
	if _, err := r.Build(); err == nil {
		t.Fatal("Build with no iterations accepted")
	}
}

func TestBuildNoIdleSpans(t *testing.T) {
	r := MustNewRecorder(2)
	r.BeginIteration(0)
	r.RecordOp(0, 10, "solid")
	r.EndIteration(10)
	prof, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Spans) != 0 || prof.TotalIdle() != 0 {
		t.Fatalf("profile %+v, want no idle", prof)
	}
	if prof.IterationTime != 10 {
		t.Fatalf("iteration time %v", prof.IterationTime)
	}
}

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Fatal("zero window accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewRecorder(0) did not panic")
		}
	}()
	MustNewRecorder(-1)
}

// Property: idle time + busy time always equals the iteration duration,
// for arbitrary op layouts.
func TestPropertyIdlePlusBusyIsDuration(t *testing.T) {
	f := func(opsRaw []uint16, durRaw uint16) bool {
		dur := simclock.Duration(durRaw%100) + 1
		tr := IterationTrace{Duration: dur}
		for _, raw := range opsRaw {
			s := simclock.Duration(raw % 100)
			e := s + simclock.Duration((raw/100)%20)
			tr.Ops = append(tr.Ops, Op{Start: s, End: e})
		}
		var idle simclock.Duration
		for _, sp := range tr.IdleSpans() {
			if sp.Length <= 0 {
				return false
			}
			idle += sp.Length
		}
		return math.Abs((idle + tr.BusyTime() - dur).Seconds()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: spans returned are disjoint and ordered.
func TestPropertySpansDisjointOrdered(t *testing.T) {
	f := func(opsRaw []uint16) bool {
		tr := IterationTrace{Duration: 200}
		for _, raw := range opsRaw {
			s := simclock.Duration(raw % 180)
			tr.Ops = append(tr.Ops, Op{Start: s, End: s + simclock.Duration(raw%13)})
		}
		prev := simclock.Duration(-1)
		for _, sp := range tr.IdleSpans() {
			if sp.Offset <= prev {
				return false
			}
			prev = sp.Offset + sp.Length
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refRecorder is the profiler as first written: it stores every
// iteration's trace, derives each trace's idle spans by sorting and
// merging its ops, and averages the traces with the modal span count.
// TestPropertyRecorderMatchesReference holds the streaming Recorder to
// it bit for bit.
type refRecorder struct {
	window    int
	traces    []IterationTrace
	iterStart simclock.Time
	ops       []Op
}

func (r *refRecorder) begin(t simclock.Time) { r.iterStart, r.ops = t, nil }

func (r *refRecorder) record(start, end simclock.Time) {
	r.ops = append(r.ops, Op{Start: start.Sub(r.iterStart), End: end.Sub(r.iterStart)})
}

func (r *refRecorder) end(t simclock.Time) {
	if len(r.traces) < r.window {
		r.traces = append(r.traces, IterationTrace{Duration: t.Sub(r.iterStart), Ops: r.ops})
	}
}

func refMerge(ops []Op, limit simclock.Duration) []interval {
	var ivs []interval
	for _, op := range ops {
		s, e := op.Start, op.End
		if e > limit {
			e = limit
		}
		if s < 0 {
			s = 0
		}
		if e > s {
			ivs = append(ivs, interval{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var merged []interval
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

func refIdleSpans(it IterationTrace) []Span {
	var spans []Span
	cursor := simclock.Duration(0)
	for _, iv := range refMerge(it.Ops, it.Duration) {
		if iv.start > cursor {
			spans = append(spans, Span{Offset: cursor, Length: iv.start - cursor})
		}
		if iv.end > cursor {
			cursor = iv.end
		}
	}
	if it.Duration > cursor {
		spans = append(spans, Span{Offset: cursor, Length: it.Duration - cursor})
	}
	return spans
}

func refBusyTime(it IterationTrace) simclock.Duration {
	var busy simclock.Duration
	for _, iv := range refMerge(it.Ops, it.Duration) {
		busy += iv.end - iv.start
	}
	return busy
}

func (r *refRecorder) build() *Profile {
	spans := make([][]Span, len(r.traces))
	counts := make(map[int]int)
	for i := range r.traces {
		spans[i] = refIdleSpans(r.traces[i])
		counts[len(spans[i])]++
	}
	modal, best := 0, 0
	for c, n := range counts {
		if n > best || (n == best && c > modal) {
			modal, best = c, n
		}
	}
	offsets := make([]float64, modal)
	lengths := make([]float64, modal)
	sq := make([]float64, modal)
	var iterSum simclock.Duration
	used := 0
	for ti, tr := range r.traces {
		if len(spans[ti]) != modal {
			continue
		}
		used++
		iterSum += tr.Duration
		for i, s := range spans[ti] {
			offsets[i] += s.Offset.Seconds()
			lengths[i] += s.Length.Seconds()
			sq[i] += s.Length.Seconds() * s.Length.Seconds()
		}
	}
	prof := &Profile{Iterations: used, Discarded: len(r.traces) - used}
	n := float64(used)
	prof.IterationTime = iterSum / simclock.Duration(n)
	for i := 0; i < modal; i++ {
		mean := lengths[i] / n
		prof.Spans = append(prof.Spans, Span{Offset: simclock.Duration(offsets[i] / n), Length: simclock.Duration(mean)})
		if mean > 0 && n > 1 {
			variance := math.Max(0, sq[i]/n-mean*mean)
			if cv := math.Sqrt(variance) / mean; cv > prof.NormalizedStdDev {
				prof.NormalizedStdDev = cv
			}
		}
	}
	return prof
}

// randomOps draws an iteration's ops relative to its start: unsorted,
// overlapping, touching, zero-length, starting before the iteration or
// ending past it.
func randomOps(rng *rand.Rand, dur float64) []Op {
	ops := make([]Op, rng.Intn(12))
	for i := range ops {
		s := rng.Float64()*(dur+10) - 5
		l := rng.Float64() * dur / 4
		switch rng.Intn(6) {
		case 0:
			l = 0
		case 1:
			if i > 0 { // touch the previous op
				s = ops[i-1].End.Seconds()
			}
		}
		ops[i] = Op{Start: simclock.Duration(s), End: simclock.Duration(s + l)}
	}
	return ops
}

// Property: the streaming Recorder builds exactly the profile the
// store-every-trace reference builds, float for float, and a trace's
// IdleSpans and BusyTime match the reference's sort-and-merge.
func TestPropertyRecorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		window := 1 + rng.Intn(25)
		rec, ref := MustNewRecorder(window), &refRecorder{window: window}
		// Most iterations replay one shape at a jittered pace, so the
		// modal shape averages several iterations; the rest are drawn
		// fresh and usually differ in span count.
		baseDur := 1 + rng.Float64()*100
		shape := randomOps(rng, baseDur)
		t0 := simclock.Time(rng.Float64() * 1000)
		for it := 0; it < window+rng.Intn(4); it++ {
			stretch := 1 + 0.2*(rng.Float64()-0.5)
			dur := baseDur * stretch
			ops := make([]Op, len(shape))
			for i, op := range shape {
				ops[i] = Op{Start: simclock.Duration(op.Start.Seconds() * stretch), End: simclock.Duration(op.End.Seconds() * stretch)}
			}
			if rng.Intn(3) == 0 {
				dur = 1 + rng.Float64()*100
				ops = randomOps(rng, dur)
			}
			if rng.Intn(2) == 0 {
				sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
			}
			rec.BeginIteration(t0)
			ref.begin(t0)
			for _, op := range ops {
				rec.RecordOp(t0.Add(op.Start), t0.Add(op.End), "op")
				ref.record(t0.Add(op.Start), t0.Add(op.End))
			}
			t0 = t0.Add(simclock.Duration(dur))
			rec.EndIteration(t0)
			ref.end(t0)

			tr := IterationTrace{Duration: simclock.Duration(dur), Ops: ops}
			if got, want := tr.IdleSpans(), refIdleSpans(tr); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: IdleSpans %v, reference %v", trial, got, want)
			}
			if got, want := tr.BusyTime(), refBusyTime(tr); got != want {
				t.Fatalf("trial %d: BusyTime %v, reference %v", trial, got, want)
			}
		}
		got, err := rec.Build()
		if err != nil {
			t.Fatal(err)
		}
		// DeepEqual compares every float with ==.
		if want := ref.build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Build %#v, reference %#v", trial, got, want)
		}
	}
}
