package scenario

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"

	"gemini/internal/baselines"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/obs"
	"gemini/internal/parallel"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
)

// CampaignOptions tune a campaign run without touching the scenario.
type CampaignOptions struct {
	// Workers bounds fan-out concurrency (0 = GOMAXPROCS). Never
	// affects results: variations land in pre-sized slots and aggregate
	// in variation order.
	Workers int
	// Variations overrides the scenario's width when positive.
	Variations int
	// Progress optionally receives live lifecycle events (one "run" =
	// one variation, covering every spec). Nil is off and costs
	// nothing; the sink is updated from worker goroutines.
	Progress *obs.Progress
	// Aggregate collects each (variation, spec) run's health registry
	// and merges them — in variation order, as that prefix completes —
	// into per-solution and campaign-wide rollups (Report.Aggregates, plus
	// the live registries behind Report.WriteAggregatedProm). Off by
	// default: the extra fields would change the report bytes existing
	// golden hashes pin.
	Aggregate bool
	// RecordRuns keeps every (variation, spec) run's scalar outcome in
	// Report.Runs — the flight recorder ranks these and replays the
	// worst offenders. Off by default, same reason as Aggregate.
	RecordRuns bool
	// Live, when non-nil, receives each run's registry as it finishes
	// (arrival order — for serving /metrics while the campaign runs,
	// not for golden files; the deterministic rollup is Aggregates).
	Live *obs.SyncRegistry
}

// Report is a campaign's aggregate result. It contains no wall-clock or
// host-dependent data, so for a fixed scenario and seed the marshalled
// report is byte-identical at any worker count; Hash seals it.
type Report struct {
	Scenario    string  `json:"scenario"`
	Description string  `json:"description,omitempty"`
	Seed        int64   `json:"seed"`
	Variations  int     `json:"variations"`
	Model       string  `json:"model"`
	Instance    string  `json:"instance"`
	Machines    int     `json:"machines"`
	Replicas    int     `json:"replicas"`
	HorizonDays float64 `json:"horizon_days"`
	// FailuresPerDay is the expected (Poisson) or exact (fixed)
	// cluster-wide background failure rate.
	FailuresPerDay float64 `json:"failures_per_day"`
	// ChaosEvents counts compiled chaos schedule entries.
	ChaosEvents int          `json:"chaos_events"`
	Specs       []SpecReport `json:"specs"`
	// Aggregates holds the cross-run metric rollups when the campaign
	// ran with Aggregate; omitted otherwise so default reports keep
	// their historical bytes.
	Aggregates *AggregateReport `json:"aggregates,omitempty"`
	// Runs holds every (variation, spec) outcome when the campaign ran
	// with RecordRuns — the flight recorder's input.
	Runs []RunRecord `json:"runs,omitempty"`
	// Hash is the SHA-256 of this report marshalled with Hash empty —
	// the campaign's deterministic fingerprint.
	Hash string `json:"hash"`

	// Merged campaign-wide live registry behind Aggregates. Unexported:
	// it serves WriteAggregatedProm and never enters the JSON or the hash.
	agg *metrics.Registry
}

// AggregateReport is the cross-run metric rollup: one table for the
// whole campaign and one per solution. Tables render every merged
// instrument in registration order — deterministic because the merge
// runs in (variation, spec) order at any worker count.
type AggregateReport struct {
	Campaign []AggregateRow  `json:"campaign"`
	Specs    []SpecAggregate `json:"specs"`
}

// SpecAggregate is one solution's rollup table.
type SpecAggregate struct {
	Name string         `json:"name"`
	Rows []AggregateRow `json:"rows"`
}

// AggregateRow is one merged instrument. Counters and gauges carry
// Value; histograms carry the distribution columns.
type AggregateRow struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Count uint64  `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
}

// aggregateRows flattens a merged registry into report rows.
func aggregateRows(reg *metrics.Registry) []AggregateRow {
	var rows []AggregateRow
	reg.Visit(func(name string, c *metrics.CounterVar, g *metrics.Gauge, h *metrics.Histogram) {
		switch {
		case c != nil:
			rows = append(rows, AggregateRow{Name: name, Kind: "counter", Value: c.Value()})
		case g != nil:
			rows = append(rows, AggregateRow{Name: name, Kind: "gauge", Value: g.Value()})
		case h != nil:
			rows = append(rows, AggregateRow{
				Name: name, Kind: "histogram",
				Count: h.Count(), Mean: h.Mean(),
				P50: h.Quantile(0.50), P99: h.Quantile(0.99),
				Max: h.Max(), Sum: h.Sum(),
			})
		}
	})
	return rows
}

// WriteAggregatedProm renders the campaign-wide merged registry in
// Prometheus text exposition format — byte-stable at any worker count.
// It errors when the campaign did not run with Aggregate (or the report
// was loaded from JSON, which does not carry the live registry).
func (r *Report) WriteAggregatedProm(w io.Writer) error {
	if r.agg == nil {
		return fmt.Errorf("scenario: report has no aggregated registry (run the campaign with Aggregate)")
	}
	return metrics.WriteProm(w, r.agg)
}

// SpecReport aggregates one solution across all variations.
type SpecReport struct {
	Name string `json:"name"`
	// EffectiveRatio summarizes the per-variation §7.3 effective
	// training time ratio.
	EffectiveRatio Stats `json:"effective_ratio"`
	// WastedHours summarizes per-variation total wasted time.
	WastedHours Stats `json:"wasted_hours"`
	// Failures is the total failures processed across variations.
	Failures int `json:"failures"`
	// FromLocal/FromPeer/FromRemote total the recovery sources.
	FromLocal  int `json:"from_local"`
	FromPeer   int `json:"from_peer"`
	FromRemote int `json:"from_remote"`
	// InMemoryFraction is (local+peer)/total recoveries — the paper's
	// headline probability of recovering from CPU memory.
	InMemoryFraction float64 `json:"in_memory_fraction"`
}

// Stats is a JSON-friendly metrics.Summary.
type Stats struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	StdDev float64 `json:"stddev"`
}

func toStats(s metrics.Summary) Stats {
	return Stats{Mean: s.Mean, Min: s.Min, Max: s.Max, P50: s.P50, P90: s.P90, P99: s.P99, StdDev: s.StdDev}
}

// scheduleBufs is a pair of failure-schedule buffers: the background
// draw and, when the scenario has chaos, the merged schedule.
type scheduleBufs struct{ base, merged failure.Schedule }

// variationBufs is one variation's reusable state: its schedule
// buffers and the run configs and results of its one runsim.RunAll.
type variationBufs struct {
	scheduleBufs
	cfgs []runsim.Config
	res  []*runsim.Result
}

// variationPool holds campaign workers' variation buffers: each
// variation draws its schedule into one set, runs every spec over it,
// and hands the set back when its runs are done (no run keeps the
// schedule past its Result).
var variationPool = sync.Pool{New: func() any { return new(variationBufs) }}

// registries recycles per-run health registries. The rollup resets each
// one after merging it; every registry here holds exactly the run.*
// instruments runsim's taps register, in tap order, so a recycled one
// renders and merges like a fresh one.
var registries = sync.Pool{New: func() any { return metrics.NewRegistry() }}

// rollup streams per-run registries into the campaign's deterministic
// aggregates. Variations finish in any order; their registries are
// merged strictly in (variation, spec) order as the completed prefix
// grows, by one worker at a time and outside the lock, then reset and
// recycled. The merge order, and so every rendering of the aggregates,
// is the same at any worker count.
type rollup struct {
	mu   sync.Mutex
	done []bool
	// regs holds run (v, si)'s registry at v*len(specs)+si.
	regs []*metrics.Registry
	// next is the first variation not yet merged; merging is set while
	// a worker drains the prefix.
	next    int
	merging bool
	// agg and specs are the campaign-wide and per-spec rollups, nil
	// (so Merge no-ops) when the campaign does not Aggregate.
	agg   *metrics.Registry
	specs []*metrics.Registry
}

// store marks variation v's registries filed and reports whether the
// caller became the merger and must drain: only for v == next, the one
// variation that can extend the prefix (a merger that stopped did so
// because next had not finished).
func (r *rollup) store(v int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[v] = true
	if r.merging || v != r.next {
		return false
	}
	r.merging = true
	return true
}

// drain merges the completed prefix. The lock is dropped around each
// variation's merges; merging stays set meanwhile, so variations that
// finish then are left for this merger to pick up.
func (r *rollup) drain() {
	nspecs := len(r.specs)
	r.mu.Lock()
	for r.next < len(r.done) && r.done[r.next] {
		v := r.next
		r.next++
		r.mu.Unlock()
		for si, reg := range r.regs[v*nspecs : (v+1)*nspecs] {
			r.agg.Merge(reg)
			r.specs[si].Merge(reg)
			reg.Reset()
			registries.Put(reg)
		}
		r.mu.Lock()
	}
	r.merging = false
	r.mu.Unlock()
}

// runConfig is the run of one spec against one variation's failure
// schedule, shared by the campaign and Replay so a replay cannot drift
// from the run it reproduces.
func (c *Compiled) runConfig(spec baselines.Spec, fs failure.Schedule) (runsim.Config, error) {
	s := c.Scenario
	return c.Job.RunConfig(spec, s.Job.Machines, fs, s.Horizon, s.Run.ReplacementDelay, s.Run.SimultaneityWindow)
}

// RunCampaign expands the compiled scenario into its seeded variations,
// fans them across workers, and aggregates. Variation v uses failure
// seed Seed+v and writes its runs' records at v*len(specs); the records
// are reduced in variation order, so the report does not depend on the
// worker count.
func RunCampaign(ctx context.Context, c *Compiled, opts CampaignOptions) (*Report, error) {
	s := c.Scenario
	variations := s.Variations
	if opts.Variations > 0 {
		variations = opts.Variations
	}
	if variations > MaxVariations {
		return nil, fmt.Errorf("scenario: variations %d exceeds the limit of %d", variations, MaxVariations)
	}
	nspecs := len(c.Specs)
	if nspecs == 0 {
		return nil, fmt.Errorf("scenario: no specs to run")
	}

	collectRegs := opts.Aggregate || opts.Live != nil
	simPerRun := s.Horizon.Seconds() * float64(nspecs)
	opts.Progress.Begin(variations, simPerRun)

	// runs holds run (v, si)'s record at v*nspecs+si.
	runs := make([]RunRecord, variations*nspecs)
	roll := &rollup{specs: make([]*metrics.Registry, nspecs)}
	if collectRegs {
		roll.done = make([]bool, variations)
		roll.regs = make([]*metrics.Registry, variations*nspecs)
	}
	if opts.Aggregate {
		roll.agg = metrics.NewRegistry()
		for si := range roll.specs {
			roll.specs[si] = metrics.NewRegistry()
		}
	}
	err := parallel.ForEachErr(ctx, opts.Workers, variations, func(v int) error {
		opts.Progress.RunStarted()
		bufs := variationPool.Get().(*variationBufs)
		defer variationPool.Put(bufs)
		fs, err := c.appendFailureSchedule(&bufs.scheduleBufs, v)
		if err != nil {
			return err
		}
		// Every spec walks the variation's schedule in one RunAll, which
		// shares each failure group's scan across the specs.
		cfgs := bufs.cfgs[:0]
		// Drop the variation's schedule, placement and registry pointers
		// before the buffers go back to the pool, on every exit.
		defer func() {
			clear(cfgs)
			bufs.cfgs = cfgs
		}()
		for _, spec := range c.Specs {
			cfg, err := c.runConfig(spec, fs)
			if err != nil {
				return fmt.Errorf("scenario: variation %d spec %s: %w", v, spec.Name, err)
			}
			if collectRegs {
				cfg.Obs.Metrics = registries.Get().(*metrics.Registry)
			}
			cfgs = append(cfgs, cfg)
		}
		out := slices.Grow(bufs.res[:0], nspecs)[:nspecs]
		bufs.res = out
		if err := runsim.RunAll(cfgs, out); err != nil {
			// RunAll names the failing run only when it has several.
			if nspecs == 1 {
				return fmt.Errorf("scenario: variation %d spec %s: %w", v, c.Specs[0].Name, err)
			}
			return fmt.Errorf("scenario: variation %d: %w", v, err)
		}
		fails := 0
		for si, res := range out {
			runs[v*nspecs+si] = makeRecord(v, c.Specs[si].Name, res)
			fails += res.Failures
			if collectRegs {
				reg := cfgs[si].Obs.Metrics
				roll.regs[v*nspecs+si] = reg
				opts.Live.Merge(reg)
			}
			res.Release()
			out[si] = nil
		}
		merge := collectRegs && roll.store(v)
		// RunDone follows the variation's records and never fires for a
		// failed variation.
		opts.Progress.RunDone(fails, simPerRun)
		if merge {
			roll.drain()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        s.Seed,
		Variations:  variations,
		Model:       s.Job.Model,
		Instance:    c.Job.Spec.Instance,
		Machines:    s.Job.Machines,
		Replicas:    c.Job.Spec.Replicas,
		HorizonDays: s.Horizon.Seconds() / simclock.Day.Seconds(),
		ChaosEvents: len(c.Chaos),
	}
	switch s.Failures.Kind {
	case "poisson":
		rep.FailuresPerDay = c.Model.ClusterFailuresPerDay(s.Job.Machines)
	case "fixed":
		rep.FailuresPerDay = s.Failures.PerDay
	}

	ratios := make([]float64, variations)
	wastedH := make([]float64, variations)
	for si, spec := range c.Specs {
		sr := SpecReport{Name: spec.Name}
		for v := range variations {
			r := &runs[v*nspecs+si]
			ratios[v] = r.EffectiveRatio
			wastedH[v] = r.WastedSeconds / 3600
			sr.Failures += r.Failures
			sr.FromLocal += r.FromLocal
			sr.FromPeer += r.FromPeer
			sr.FromRemote += r.FromRemote
		}
		sr.EffectiveRatio = toStats(metrics.Summarize(ratios))
		sr.WastedHours = toStats(metrics.Summarize(wastedH))
		if total := sr.FromLocal + sr.FromPeer + sr.FromRemote; total > 0 {
			sr.InMemoryFraction = float64(sr.FromLocal+sr.FromPeer) / float64(total)
		}
		rep.Specs = append(rep.Specs, sr)
	}
	if opts.RecordRuns {
		rep.Runs = runs
	}
	if opts.Aggregate {
		rep.agg = roll.agg
		ar := &AggregateReport{Campaign: aggregateRows(rep.agg)}
		for si, spec := range c.Specs {
			ar.Specs = append(ar.Specs, SpecAggregate{Name: spec.Name, Rows: aggregateRows(roll.specs[si])})
		}
		rep.Aggregates = ar
	}
	rep.Hash = rep.computeHash(opts.Workers)
	return rep, nil
}

// ComputeHash returns the SHA-256 hex digest of the report marshalled
// with the Hash field empty. Verification: recompute and compare. It
// re-encodes every byte from the report's fields, its run records on
// parallel.Workers() workers.
func (r *Report) ComputeHash() string { return r.computeHash(parallel.Workers()) }

func (r *Report) computeHash(workers int) string {
	enc, err := r.encode(workers, false, "")
	if err != nil {
		// Report marshalling cannot fail: all fields are plain data.
		panic(fmt.Sprintf("scenario: report marshal: %v", err))
	}
	defer enc.release()
	return hex.EncodeToString(enc.digest())
}

// JSON marshals the report indented, ready to write to disk, into one
// exact-size slice.
func (r *Report) JSON() ([]byte, error) {
	enc, err := r.encode(parallel.Workers(), true, r.Hash)
	if err != nil {
		return nil, err
	}
	defer enc.release()
	return enc.appendTo(make([]byte, 0, enc.size())), nil
}
