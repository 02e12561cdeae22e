package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

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
	// and merges them — post-barrier, in variation order — into
	// per-solution and campaign-wide rollups (Report.Aggregates, plus
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
// happens post-barrier in variation order.
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

// variationResult is one variation's per-spec outcomes, in spec order.
type variationResult struct {
	ratio  []float64
	wasted []simclock.Duration
	fails  []int
	local  []int
	peer   []int
	remote []int
	// records and regs are populated only under RecordRuns/Aggregate.
	records []RunRecord
	regs    []*metrics.Registry
}

// schedules holds campaign workers' failure-schedule buffers: each
// variation draws its schedule into one and hands it back when its runs
// are done (no run keeps the schedule past its Result).
var schedules = sync.Pool{New: func() any { return new(failure.Schedule) }}

// RunCampaign expands the compiled scenario into its seeded variations,
// fans them across workers, and aggregates. Variation v uses failure
// seed Seed+v; results are collected into slot v and reduced in
// variation order, so the report does not depend on the worker count.
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

	slots := make([]variationResult, variations)
	hooks := parallel.RunHooks{}
	if opts.Progress != nil {
		hooks.Started = func(int) { opts.Progress.RunStarted() }
		// Done fires after fn stored slots[v], so the failure totals are
		// ready to read.
		hooks.Done = func(v int) {
			fails := 0
			for _, n := range slots[v].fails {
				fails += n
			}
			opts.Progress.RunDone(fails, simPerRun)
		}
	}
	err := parallel.ForEachErrHooks(ctx, opts.Workers, variations, hooks, func(v int) error {
		buf := schedules.Get().(*failure.Schedule)
		defer schedules.Put(buf)
		fs, err := c.appendFailureSchedule((*buf)[:0], v)
		if err != nil {
			return err
		}
		*buf = fs
		vr := variationResult{
			ratio:  make([]float64, nspecs),
			wasted: make([]simclock.Duration, nspecs),
			fails:  make([]int, nspecs),
			local:  make([]int, nspecs),
			peer:   make([]int, nspecs),
			remote: make([]int, nspecs),
		}
		if opts.RecordRuns {
			vr.records = make([]RunRecord, nspecs)
		}
		if collectRegs {
			vr.regs = make([]*metrics.Registry, nspecs)
		}
		for si, spec := range c.Specs {
			cfg := runsim.Config{
				Spec:               spec,
				Machines:           s.Job.Machines,
				Failures:           fs,
				Horizon:            s.Horizon,
				ReplacementDelay:   s.Run.ReplacementDelay,
				SimultaneityWindow: s.Run.SimultaneityWindow,
			}
			if spec.UsesCPUMemory {
				cfg.Placement = c.Job.Placement
			}
			var reg *metrics.Registry
			if collectRegs {
				reg = metrics.NewRegistry()
				cfg.Obs.Metrics = reg
			}
			res, err := runsim.Run(cfg)
			if err != nil {
				return fmt.Errorf("scenario: variation %d spec %s: %w", v, spec.Name, err)
			}
			vr.ratio[si] = res.EffectiveRatio
			vr.wasted[si] = res.TotalWasted
			vr.fails[si] = res.Failures
			vr.local[si] = res.FromLocal
			vr.peer[si] = res.FromPeer
			vr.remote[si] = res.FromRemote
			if opts.RecordRuns {
				vr.records[si] = makeRecord(v, spec.Name, res)
			}
			if collectRegs {
				vr.regs[si] = reg
				opts.Live.Merge(reg)
			}
			res.Release()
		}
		slots[v] = vr
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
		for v := range slots {
			ratios[v] = slots[v].ratio[si]
			wastedH[v] = slots[v].wasted[si].Seconds() / 3600
			sr.Failures += slots[v].fails[si]
			sr.FromLocal += slots[v].local[si]
			sr.FromPeer += slots[v].peer[si]
			sr.FromRemote += slots[v].remote[si]
		}
		sr.EffectiveRatio = toStats(metrics.Summarize(ratios))
		sr.WastedHours = toStats(metrics.Summarize(wastedH))
		if total := sr.FromLocal + sr.FromPeer + sr.FromRemote; total > 0 {
			sr.InMemoryFraction = float64(sr.FromLocal+sr.FromPeer) / float64(total)
		}
		rep.Specs = append(rep.Specs, sr)
	}
	if opts.RecordRuns {
		rep.Runs = make([]RunRecord, 0, variations*nspecs)
		for v := range slots {
			rep.Runs = append(rep.Runs, slots[v].records...)
		}
	}
	if opts.Aggregate {
		// Deterministic rollup: merge per-run registries strictly in
		// (variation, spec) order, after the parallel barrier — the
		// resulting registration order, and therefore every rendering,
		// is independent of the worker count.
		rep.agg = metrics.NewRegistry()
		specAggs := make([]*metrics.Registry, nspecs)
		for si := range c.Specs {
			specAggs[si] = metrics.NewRegistry()
		}
		for v := range slots {
			for si, reg := range slots[v].regs {
				rep.agg.Merge(reg)
				specAggs[si].Merge(reg)
			}
		}
		ar := &AggregateReport{Campaign: aggregateRows(rep.agg)}
		for si, spec := range c.Specs {
			ar.Specs = append(ar.Specs, SpecAggregate{Name: spec.Name, Rows: aggregateRows(specAggs[si])})
		}
		rep.Aggregates = ar
	}
	rep.Hash = rep.ComputeHash()
	return rep, nil
}

// ComputeHash returns the SHA-256 hex digest of the report marshalled
// with the Hash field empty. Verification: recompute and compare.
func (r *Report) ComputeHash() string {
	clone := *r
	clone.Hash = ""
	data, err := json.Marshal(&clone)
	if err != nil {
		// Report marshalling cannot fail: all fields are plain data.
		panic(fmt.Sprintf("scenario: report marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// JSON marshals the report indented, ready to write to disk.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
