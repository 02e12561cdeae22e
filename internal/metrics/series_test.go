package metrics

import (
	"testing"

	"gemini/internal/simclock"
)

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries("x", 3)
	if s.Len() != 0 {
		t.Fatalf("fresh series: len=%d", s.Len())
	}
	for i := 0; i < 5; i++ {
		s.Append(simclock.Time(i), float64(i*10))
	}
	if s.Len() != 3 {
		t.Fatalf("len %d after 5 appends at capacity 3, want 3", s.Len())
	}
	for i, want := range []Point{{2, 20}, {3, 30}, {4, 40}} {
		if got := s.Point(i); got != want {
			t.Errorf("point %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestSeriesPointOutOfRangePanics(t *testing.T) {
	s := NewSeries("x", 2)
	s.Append(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Point did not panic")
		}
	}()
	s.Point(1)
}

func TestNilSeriesIsDisabled(t *testing.T) {
	var s *Series
	s.Append(1, 2) // must not panic
	if s.Len() != 0 || s.Name() != "" {
		t.Fatal("nil series not inert")
	}
}

func TestRecorderSamplesCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("recoveries")
	g := reg.Gauge("coverage")
	rec := NewRecorder(reg, 8)
	rec.Watch("coverage", "recoveries", "fresh") // "fresh" registered as a gauge
	g.Set(1.0)
	rec.Sample(10)
	c.Inc()
	g.Set(0.75)
	rec.Sample(20)

	series := rec.Series()
	if len(series) != 3 {
		t.Fatalf("%d series, want 3", len(series))
	}
	names := []string{series[0].Name(), series[1].Name(), series[2].Name()}
	want := []string{"coverage", "recoveries", "fresh"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("series order %v, want %v", names, want)
		}
	}
	if p := series[0].Point(1); p != (Point{20, 0.75}) {
		t.Fatalf("coverage sample %+v, want {20 0.75}", p)
	}
	if p := series[1].Point(0); p != (Point{10, 0}) {
		t.Fatalf("recoveries sample %+v, want {10 0}", p)
	}
	if p := series[1].Point(1); p != (Point{20, 1}) {
		t.Fatalf("recoveries sample %+v, want {20 1}", p)
	}
	if rec.Samples() != 2 {
		t.Fatalf("%d samples, want 2", rec.Samples())
	}
}

func TestRecorderWatchHistogramPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat")
	rec := NewRecorder(reg, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("watching a histogram did not panic")
		}
	}()
	rec.Watch("lat")
}

func TestRecorderWatchTwicePanics(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, 4)
	rec.Watch("x")
	defer func() {
		if recover() == nil {
			t.Fatal("double watch did not panic")
		}
	}()
	rec.Watch("x")
}

func TestNilRecorderIsDisabled(t *testing.T) {
	rec := NewRecorder(nil, 8)
	if rec != nil {
		t.Fatal("recorder over a nil registry must be nil")
	}
	rec.Watch("x")
	rec.Sample(5)
	rec.Stop()
	if rec.Samples() != 0 || rec.Series() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecorderStartSamplesOnCadence(t *testing.T) {
	engine := simclock.NewEngine()
	reg := NewRegistry()
	g := reg.Gauge("iteration")
	rec := NewRecorder(reg, 16)
	rec.Watch("iteration")
	// A producer updates the gauge every 3 s; the recorder samples every
	// 10 s.
	simclock.NewTicker(engine, 3, func(at simclock.Time) { g.Set(float64(at)) })
	rec.Start(engine, 10)
	engine.Run(35)
	if rec.Samples() != 3 {
		t.Fatalf("%d samples over 35 s at 10 s cadence, want 3", rec.Samples())
	}
	s := rec.Series()[0]
	// At t=10 the last producer tick was t=9; at t=20, t=18. At t=30 both
	// fire, but the recorder's event was scheduled earlier (at t=20, vs
	// the producer's at t=27), so the sample still sees the t=27 value.
	for i, want := range []Point{{10, 9}, {20, 18}, {30, 27}} {
		if got := s.Point(i); got != want {
			t.Errorf("sample %d = %+v, want %+v", i, got, want)
		}
	}
	rec.Stop()
	engine.Run(100)
	if rec.Samples() != 3 {
		t.Fatalf("recorder sampled after Stop: %d", rec.Samples())
	}
}

func TestRecorderDoubleStartPanics(t *testing.T) {
	engine := simclock.NewEngine()
	reg := NewRegistry()
	rec := NewRecorder(reg, 4)
	rec.Start(engine, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	rec.Start(engine, 10)
}

// The monitor's steady-state sampling must be allocation-free, like the
// other hot-path observability (disabled tracing, histogram Observe).
// ci.sh runs this outside the race detector.
func TestRecorderSampleAllocsZero(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events")
	g := reg.Gauge("coverage")
	rec := NewRecorder(reg, 32)
	rec.Watch("events", "coverage")
	// Fill the rings so sampling is in eviction mode.
	for i := 0; i < 64; i++ {
		rec.Sample(simclock.Time(i))
	}
	var at simclock.Time = 100
	if n := testing.AllocsPerRun(200, func() {
		c.Add(1)
		g.Set(0.5)
		rec.Sample(at)
		at++
	}); n != 0 {
		t.Fatalf("Recorder.Sample allocates %v bytes/op in steady state, want 0", n)
	}
}

// Eviction at exact capacity boundaries: filling to exactly capacity
// evicts nothing, the very next append evicts exactly the oldest point,
// and a capacity-1 ring degenerates to "keep the last point".
func TestSeriesDropCountAtCapacityBoundary(t *testing.T) {
	s := NewSeries("x", 4)
	for i := 0; i < 4; i++ {
		s.Append(simclock.Time(i), float64(i))
		if s.Len() != i+1 || s.Point(0) != (Point{0, 0}) {
			t.Fatalf("after %d appends at capacity 4: len=%d oldest=%+v, want %d/{0 0}", i+1, s.Len(), s.Point(0), i+1)
		}
	}
	s.Append(4, 4)
	if s.Len() != 4 {
		t.Fatalf("len=%d one past capacity, want 4", s.Len())
	}
	if got := s.Point(0); got != (Point{1, 1}) {
		t.Fatalf("oldest point %+v after first eviction, want {1 1}", got)
	}
	s.Append(5, 5)
	if got := s.Point(0); got != (Point{2, 2}) {
		t.Fatalf("oldest point %+v after second eviction, want {2 2}", got)
	}
	if got := s.Point(3); got != (Point{5, 5}) {
		t.Fatalf("newest point %+v after second eviction, want {5 5}", got)
	}

	one := NewSeries("y", 1)
	for i := 1; i <= 5; i++ {
		one.Append(simclock.Time(i), float64(i*10))
		if one.Len() != 1 || one.Point(0) != (Point{simclock.Time(i), float64(i * 10)}) {
			t.Fatalf("capacity-1 after %d appends: len=%d point=%+v", i, one.Len(), one.Point(0))
		}
	}
}
