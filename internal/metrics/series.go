package metrics

// The run health monitor's time-series layer: where Registry holds the
// *current* value of every instrument, a Series remembers how a value
// evolved over simulated time, and a Recorder samples selected registry
// instruments on a fixed sim-time cadence. Both are pure observers — they
// read the clock and the instruments, never schedule state changes — so a
// monitored run replays bit-identically to an unmonitored one. In steady
// state (after the ring fills) sampling is allocation-free, matching the
// repo's alloc-gate discipline for hot-path observability.

import (
	"fmt"

	"gemini/internal/simclock"
)

// Point is one timestamped observation in a Series.
type Point struct {
	At    simclock.Time
	Value float64
}

// Series is a fixed-capacity ring buffer of sim-time samples. When full,
// Append overwrites the oldest point — a bounded monitor must never grow without bound on a long horizon. A nil *Series
// is disabled: Append no-ops, accessors return zeros.
type Series struct {
	name   string
	points []Point
	head   int // index of the oldest live point
}

// NewSeries creates a series holding at most capacity points.
func NewSeries(name string, capacity int) *Series {
	if capacity < 1 {
		panic(fmt.Sprintf("metrics: series capacity %d must be ≥ 1", capacity))
	}
	return &Series{name: name, points: make([]Point, 0, capacity)}
}

// Name returns the series name; "" for nil.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Append records one observation, evicting the oldest when full.
func (s *Series) Append(at simclock.Time, v float64) {
	if s == nil {
		return
	}
	if len(s.points) < cap(s.points) {
		s.points = append(s.points, Point{At: at, Value: v})
		return
	}
	s.points[s.head] = Point{At: at, Value: v}
	s.head = (s.head + 1) % len(s.points)
}

// Len returns the number of live points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.points)
}

// Point returns the i-th live point, oldest first.
func (s *Series) Point(i int) Point {
	if s == nil || i < 0 || i >= len(s.points) {
		panic(fmt.Sprintf("metrics: series point %d out of range [0,%d)", i, s.Len()))
	}
	return s.points[(s.head+i)%len(s.points)]
}

// column is one watched instrument and the series recording it.
type column struct {
	c *CounterVar
	g *Gauge
	s *Series
}

// Recorder samples selected counters and gauges of one Registry into
// per-instrument Series. Watch the instruments, then either call Sample
// from your own clock hook or Start a ticker on the run's engine; the
// sampling callback only reads, so a recorded run is bit-identical to an
// unrecorded one. A nil *Recorder is disabled and free.
type Recorder struct {
	reg     *Registry
	cap     int
	cols    []column
	samples int
	ticker  *simclock.Ticker
}

// NewRecorder creates a recorder over reg whose series each hold at most
// capacity points. A nil registry yields a nil (disabled) recorder.
func NewRecorder(reg *Registry, capacity int) *Recorder {
	if reg == nil {
		return nil
	}
	if capacity < 1 {
		panic(fmt.Sprintf("metrics: recorder capacity %d must be ≥ 1", capacity))
	}
	return &Recorder{reg: reg, cap: capacity}
}

// Watch adds registry instruments to the sample set, in call order (which
// fixes the CSV column order). A name not yet registered is registered as
// a gauge; watching a histogram panics — sample its Snapshot aggregates
// instead. Watching the same name twice panics.
func (r *Recorder) Watch(names ...string) {
	if r == nil {
		return
	}
	for _, name := range names {
		for _, col := range r.cols {
			if col.s.Name() == name {
				panic(fmt.Sprintf("metrics: %q watched twice", name))
			}
		}
		col := column{s: NewSeries(name, r.cap)}
		if i, ok := r.reg.index[name]; ok {
			switch in := r.reg.order[i]; in.kind {
			case kindCounter:
				col.c = in.c
			case kindGauge:
				col.g = in.g
			default:
				panic(fmt.Sprintf("metrics: cannot watch histogram %q; watch its Snapshot aggregates", name))
			}
		} else {
			col.g = r.reg.Gauge(name)
		}
		r.cols = append(r.cols, col)
	}
}

// Sample appends every watched instrument's current value at the given
// time. Allocation-free once the rings are full.
func (r *Recorder) Sample(at simclock.Time) {
	if r == nil {
		return
	}
	r.samples++
	for i := range r.cols {
		col := &r.cols[i]
		if col.c != nil {
			col.s.Append(at, col.c.Value())
		} else {
			col.s.Append(at, col.g.Value())
		}
	}
}

// Start arms a sim-time ticker that samples every period until Stop (or
// the end of the run). The ticker's callback is read-only, so the
// monitored run's schedule of state-changing events is untouched.
func (r *Recorder) Start(engine *simclock.Engine, every simclock.Duration) {
	if r == nil {
		return
	}
	if r.ticker != nil {
		panic("metrics: recorder already started")
	}
	r.ticker = simclock.NewTicker(engine, every, func(at simclock.Time) { r.Sample(at) })
}

// Stop cancels the ticker armed by Start.
func (r *Recorder) Stop() {
	if r == nil || r.ticker == nil {
		return
	}
	r.ticker.Stop()
}

// Samples returns how many times Sample ran.
func (r *Recorder) Samples() int {
	if r == nil {
		return 0
	}
	return r.samples
}

// Series returns the recorded series in watch order.
func (r *Recorder) Series() []*Series {
	if r == nil {
		return nil
	}
	out := make([]*Series, len(r.cols))
	for i := range r.cols {
		out[i] = r.cols[i].s
	}
	return out
}
