package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gemini/internal/derive"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// inputs is a workload's generated input, before the program has seen it.
// Set-up is parse followed by compile; setup_s times both, cold.
type inputs interface {
	// parse decodes the workload's input files (a no-op where it has none).
	parse() error
	// compile builds everything a unit needs: scenario.Compile, or
	// core.NewJob for every job the workload uses.
	compile() (instance, error)
}

// instance is a compiled workload, ready to run units.
type instance interface {
	// keys lists the derivation-cache keys compile resolves.
	keys() []derive.Key
	// period is the number of consecutive units that make one pass over
	// the workload's inputs. A timed phase ends on a whole pass, so every
	// input weighs the same in its metrics.
	period() int
	// unit runs unit i and checks its outputs. rec is nil when untraced.
	unit(i int, rec *recorder) error
	// check runs the workload's one-off checks; it runs once, untimed,
	// after warm-up.
	check() error
	// decompose runs after traced unit i, outside the unit span. It calls
	// the layers the unit reached through one entry point one at a time,
	// so each gets its own span, and checks them against the unit.
	decompose(i int, rec *recorder) error
	// simSeconds is the simulated time one unit covers.
	simSeconds() float64
	// model returns the exact model statistics and layer counts of the
	// workload's units; they are fixed by the seed.
	model() map[string]float64
	// digest fingerprints every simulated result the units produced.
	digest() string
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	// seconds is the timed budget; a traced run spends it on pairs of
	// untraced and traced runs.
	seconds  float64
	trace    bool
	traceDir string
	// units, when positive, replaces the time budget with a fixed count
	// of units, or of pairs in a traced run. setups and setupSeconds bound the cold set-up
	// repetitions from below.
	units        int
	setups       int
	setupSeconds float64
}

// warmupUnits run untimed after set-up. A timed phase runs at least
// minUnits units, so at least ten samples lie beyond its 90th percentile.
const (
	warmupUnits = 3
	minUnits    = 100
)

// measured is a metric value with its sample count.
type measured struct {
	value   float64
	samples int
}

// outcome is everything one invocation measured and checked.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]measured
	// raw holds the host-time metrics before scaling to the reference
	// speed.
	raw    map[string]float64
	digest string
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// runUnits runs untraced units starting at index next until the budget
// is spent: cfg.units units when set, else cfg.seconds of wall time and
// minUnits units, rounded up to a whole period. It returns each unit's
// host duration. With cal set, the calibration loop runs after every
// unit, outside the unit's time, and its durations are returned as well.
func runUnits(cfg config, inst instance, next *int, cal *calibrator, o *outcome) (durs, cals []float64) {
	start := time.Now()
	for {
		if cfg.units > 0 {
			if len(durs) >= cfg.units {
				break
			}
		} else if len(durs)%inst.period() == 0 && len(durs) >= minUnits && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		durs = append(durs, runOne(inst, *next, nil, o))
		*next++
		if cal != nil {
			cals = append(cals, cal.run())
		}
	}
	return durs, cals
}

// runOne runs unit i, counts it in o, and returns its host duration.
// With rec set, the unit is followed, outside its time, by its
// decomposition.
func runOne(inst instance, i int, rec *recorder, o *outcome) float64 {
	t0 := time.Now()
	err := runUnit(inst, i, rec)
	d := time.Since(t0).Seconds()
	if err == nil && rec != nil {
		err = decompose(inst, i, rec)
	}
	o.attempted++
	if err != nil {
		o.failed++
		o.fail("unit %d: %v", i, err)
	}
	return d
}

// The host is a shared VM whose speed drifts by ±15% over minutes as
// neighbours come and go, and by more in bursts; the raw time of one
// fixed piece of work moves with it. The calibration loop is such a
// piece of work, written in the benchmark and never changed by a change
// to the program. The host's drift has two parts that the workloads feel
// in different measure: the speed of cache-resident map and sort work,
// which neighbours' cache pressure moves, and the speed of plain
// arithmetic, which core sharing and clock changes move. The loop does
// one millisecond of each, with no allocation, so the program's heap and
// collector do not reach into it. It runs interleaved with the measured
// work, and every end-to-end host time is scaled by calReference / (the
// loop's median time in the same phase), which reads it at a fixed
// reference speed. On the 2-core Xeon host the bounds were measured on,
// the loop's median is about 2 ms, so scaled times read close to raw
// ones there. Measured over 15 minutes there, scaling by both parts cut
// the window-to-window spread of the unit-time p50 and p90 to a half to
// a third of the raw spread; scaling by either part alone did worse on
// one of the two.
const (
	calReference = 0.002 // seconds
	calOps       = 20000
	calKeys      = 4096
	calALUOps    = 500000
)

type calibrator struct {
	m  map[uint64]float64
	xs []float64
}

// calSink keeps the compiler from dropping the loop.
var calSink float64

func newCalibrator() *calibrator {
	return &calibrator{m: make(map[uint64]float64, calKeys), xs: make([]float64, 0, calOps/4)}
}

// run executes the loop once and returns its host duration in seconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	clear(c.m)
	c.xs = c.xs[:0]
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < calOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.m[(x>>32)%calKeys] += float64(x>>40) * 1e-3
		if i%4 == 0 {
			c.xs = append(c.xs, float64(x>>11))
		}
	}
	sort.Float64s(c.xs)
	s := c.xs[len(c.xs)/2]
	for _, v := range c.m {
		s += v
	}
	for i := 0; i < calALUOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	calSink = s + float64(x>>11)
	return time.Since(t0).Seconds()
}

// speedScale is the factor that reads host times measured alongside
// the calibration times cals at the reference speed.
func speedScale(cals []float64) float64 { return calReference / median(cals) }

// runUnit runs unit i, inside a unit span when rec is set.
func runUnit(inst instance, i int, rec *recorder) error {
	rec.startUnit(i)
	rec.begin("unit")
	err := inst.unit(i, rec)
	rec.endUnit()
	return err
}

// decompose runs unit i's decomposition inside a decompose span, and
// files the unit's values.
func decompose(inst instance, i int, rec *recorder) error {
	rec.begin("decompose")
	err := inst.decompose(i, rec)
	rec.end()
	rec.finishUnit()
	return err
}

// setup times cold set-ups until both floors are met, and returns the
// last instance with the per-set-up times, and the calibration times
// when cal is set. Each starts as a fresh process would: derivation
// cache cleared, the previous set-up's garbage collected. With rec set,
// each set-up is split into parse, derive (the cold cache lookups, timed
// alone) and compile (now warm).
func setup(cfg config, in inputs, keys []derive.Key, rec *recorder, cal *calibrator) (inst instance, times, cals []float64, err error) {
	start := time.Now()
	for len(times) < cfg.setups || time.Since(start).Seconds() < cfg.setupSeconds {
		inst = nil // a fresh process holds no earlier instance
		derive.Shared().Clear()
		runtime.GC()
		rec.startUnit(-1 - len(times))
		t0 := time.Now()
		rec.begin("setup.parse")
		err = in.parse()
		rec.end()
		if err != nil {
			return nil, nil, nil, err
		}
		for _, k := range keys {
			rec.begin("setup.derive")
			_, err = derive.Shared().Get(k)
			rec.end()
			if err != nil {
				return nil, nil, nil, err
			}
		}
		rec.begin("setup.compile")
		inst, err = in.compile()
		rec.end()
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		rec.finishUnit()
		if cal != nil {
			cals = append(cals, cal.run())
		}
	}
	return inst, times, cals, nil
}

// run executes one invocation: cold set-ups, warm-up, then either the
// untraced timed phase (end-to-end metrics) or the traced phase
// (per-layer metrics).
func run(cfg config, w workload) (*outcome, error) {
	in, err := w.inputs(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	o := &outcome{metrics: map[string]measured{}, raw: map[string]float64{}}
	var rec *recorder
	var keys []derive.Key
	if cfg.trace {
		// A plain cold set-up first: it yields the derivation keys the
		// traced set-ups time alone, and the cache counts of a cold set-up.
		inst, _, _, err := setup(config{setups: 1}, in, nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		st := derive.Shared().Stats()
		o.metrics["derive.hits"] = measured{float64(st.Hits), 1}
		o.metrics["derive.misses"] = measured{float64(st.Misses), 1}
		keys = inst.keys()
		rec = newRecorder()
	}
	cal := newCalibrator()
	inst, setups, cals, err := setup(cfg, in, keys, rec, cal)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	o.raw["setup_s"] = median(setups)
	o.metrics["setup_s"] = measured{median(setups) * speedScale(cals), len(setups)}

	runtime.GC()
	next := 0
	warm := cfg
	warm.units = warmupUnits
	runUnits(warm, inst, &next, nil, o)
	if err := inst.check(); err != nil {
		o.fail("check: %v", err)
	}
	runtime.GC()

	if !cfg.trace {
		timedPhase(cfg, inst, &next, cal, o)
	} else {
		tracedPhase(cfg, w, inst, &next, rec, o)
	}
	o.digest = inst.digest()
	return o, nil
}

// timedPhase measures the end-to-end metrics with tracing off.
func timedPhase(cfg config, inst instance, next *int, cal *calibrator, o *outcome) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	durs, cals := runUnits(cfg, inst, next, cal, o)
	runtime.ReadMemStats(&after)
	n := len(durs)
	total := 0.0
	for _, d := range durs {
		total += d
	}
	scale := speedScale(cals)
	o.raw["unit_s_p50"] = quantile(durs, 0.5)
	o.raw["unit_s_p90"] = quantile(durs, 0.9)
	o.raw["sim_days_per_s"] = float64(n) * inst.simSeconds() / simclock.Day.Seconds() / total
	o.metrics["unit_s_p50"] = measured{o.raw["unit_s_p50"] * scale, n}
	o.metrics["unit_s_p90"] = measured{o.raw["unit_s_p90"] * scale, n}
	o.metrics["sim_days_per_s"] = measured{o.raw["sim_days_per_s"] / scale, n}
	o.metrics["alloc_mb_per_unit"] = measured{float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(n), n}
	o.metrics["peak_rss_mb"] = measured{peakRSSMB(), 1}
}

// tracedPhase runs every input twice in a row, untraced and traced, in
// alternating order, until the budget is spent, and writes the trace.
// The untraced run of each pair is the base the coverage and overhead
// ratios divide by; the pair shares the host's speed of the moment and,
// over many pairs, any advantage of running second. Each run starts on a
// collected heap, so neither pays for the other's garbage or for the
// decomposition's.
func tracedPhase(cfg config, w workload, inst instance, next *int, rec *recorder, o *outcome) {
	var plain []float64
	order := [2][2]bool{{false, true}, {true, false}} // traced or not, in run order
	start := time.Now()
	for k := 0; ; k++ {
		if cfg.units > 0 {
			if k >= cfg.units {
				break
			}
		} else if k > 0 && k%inst.period() == 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		i := *next
		*next++
		for _, traced := range order[k%2] {
			runtime.GC()
			if traced {
				runOne(inst, i, rec, o)
			} else {
				plain = append(plain, runOne(inst, i, nil, o))
			}
		}
	}

	for name, vs := range rec.samples {
		o.metrics[name] = measured{median(vs), len(vs)}
	}
	for name, v := range inst.model() {
		o.metrics[name] = measured{v, 1}
	}
	o.metrics["bench.coverage"] = measured{median(ratios(rec.samples[coveredSelf], plain)), len(plain)}
	o.metrics["bench.trace_overhead"] = measured{median(ratios(rec.samples[tracedUnit], plain)) - 1, len(plain)}
	// A fixed handful of units is too few for the ratio to mean anything.
	if cov := o.metrics["bench.coverage"].value; cfg.units == 0 && cov < minCoverage {
		o.fail("bench.coverage %.3f below %.2f: the layer spans miss part of the unit", cov, minCoverage)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, rec.tracer); err != nil {
		o.fail("writing trace: %v", err)
		return
	}
	if issues, err := trace.Lint(buf.Bytes()); err != nil || len(issues) > 0 {
		o.fail("trace lint: %v %v", err, issues)
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		o.fail("trace dir: %v", err)
		return
	}
	if err := os.WriteFile(filepath.Join(cfg.traceDir, w.name+".trace.json"), buf.Bytes(), 0o644); err != nil {
		o.fail("writing trace: %v", err)
	}
}

// tracedUnit and coveredSelf name, among a unit's values, the traced
// unit span's duration and the self time of the layer spans nested in it.
const (
	tracedUnit  = "bench.traced_unit_s"
	coveredSelf = "bench.covered_s"
)

// minCoverage is the share of the untraced unit time the layer spans of
// a traced unit must account for.
const minCoverage = 0.95

// recorder records host-clock spans around the benchmark's calls into
// each layer, on one trace.Tracer track. Every span of a unit carries
// the unit id in its args, and spans nest: a layer's self time is its
// span minus its child spans. A nil recorder records nothing, so an
// untraced unit pays only nil checks.
type recorder struct {
	tracer *trace.Tracer
	track  *trace.Track
	args   string
	stack  []frame
	// unit holds the current unit's values: span self times under
	// "<span>_s" plus notes, summed within the unit.
	unit map[string]float64
	// covered is Σ self time of the spans nested in the current unit span.
	covered, heapPeak float64
	// samples holds one value per traced unit (or set-up) per metric.
	samples map[string][]float64
	heap    []rtmetrics.Sample
	// gc holds the collector's totals at the current unit's start.
	gc runtime.MemStats
}

type frame struct {
	name  string
	child float64
}

func newRecorder() *recorder {
	epoch := time.Now()
	tr := trace.NewTracer(func() simclock.Time { return simclock.Time(time.Since(epoch).Seconds()) })
	return &recorder{
		tracer:  tr,
		track:   tr.Track("benchmark", "host"),
		unit:    map[string]float64{},
		samples: map[string][]float64{},
		heap:    []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// startUnit begins collecting unit id's values; set-ups use negative ids.
func (r *recorder) startUnit(id int) {
	if r == nil {
		return
	}
	r.args = "unit=" + strconv.Itoa(id)
	clear(r.unit)
	r.covered, r.heapPeak = 0, 0
	runtime.ReadMemStats(&r.gc)
}

// endUnit closes the unit span and notes its duration and the
// collector's work since the unit started.
func (r *recorder) endUnit() {
	if r == nil {
		return
	}
	d := r.end()
	var gc runtime.MemStats
	runtime.ReadMemStats(&gc)
	r.unit[tracedUnit] += d
	r.unit["runtime.gc_cycles"] += float64(gc.NumGC - r.gc.NumGC)
	r.unit["runtime.gc_pause_s"] += float64(gc.PauseTotalNs-r.gc.PauseTotalNs) / 1e9
}

// finishUnit files the unit's values as one sample each.
func (r *recorder) finishUnit() {
	if r == nil {
		return
	}
	for k, v := range r.unit {
		r.samples[k] = append(r.samples[k], v)
	}
	if _, ok := r.unit[tracedUnit]; ok {
		r.samples[coveredSelf] = append(r.samples[coveredSelf], r.covered)
		r.samples["runtime.heap_peak_mb"] = append(r.samples["runtime.heap_peak_mb"], r.heapPeak/1e6)
	}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	cat, _, _ := strings.Cut(name, ".")
	r.track.BeginArgs(cat, name, r.args)
	r.stack = append(r.stack, frame{name: name})
}

// end closes the innermost span and returns its duration in seconds.
func (r *recorder) end() float64 {
	if r == nil {
		return 0
	}
	r.track.End()
	spans := r.track.Spans()
	sp := spans[len(spans)-1]
	d := float64(sp.End - sp.Start)
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	self := d - f.child
	r.unit[f.name+"_s"] += self
	if len(r.stack) > 0 {
		r.stack[len(r.stack)-1].child += d
	}
	if inUnit := len(r.stack) > 0 && r.stack[0].name == "unit"; inUnit || f.name == "unit" {
		if inUnit {
			r.covered += self
		}
		rtmetrics.Read(r.heap)
		r.heapPeak = math.Max(r.heapPeak, float64(r.heap[0].Value.Uint64()))
	}
	return d
}

// note adds v to the current unit's value of a metric.
func (r *recorder) note(name string, v float64) {
	if r != nil {
		r.unit[name] += v
	}
}

// value returns the current unit's value of a metric so far.
func (r *recorder) value(name string) float64 {
	if r == nil {
		return 0
	}
	return r.unit[name]
}

// peakRSSMB returns the process's peak resident set in MB: ru_maxrss,
// which Linux reports in kB and which equals VmHWM.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratios returns a[j] / b[j] for every j both have.
func ratios(a, b []float64) []float64 {
	r := make([]float64, min(len(a), len(b)))
	for j := range r {
		r[j] = a[j] / b[j]
	}
	return r
}
