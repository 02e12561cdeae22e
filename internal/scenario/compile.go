package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"gemini/internal/baselines"
	"gemini/internal/chaos"
	"gemini/internal/core"
	"gemini/internal/failure"
	"gemini/internal/simclock"
)

// Compiled is a scenario lowered onto the simulator's native types: the
// derived job (resolved through the shared derivation cache), the specs
// to compare, the seeded fleet assignment, the chaos schedule validated
// against the cluster size, and the chaos events' failure-schedule
// shadow for the long-run accounting.
type Compiled struct {
	Scenario *Scenario
	Job      *core.Job
	// Specs are the solutions under comparison, in scenario order.
	Specs []baselines.Spec
	// Fleet is the per-rank instance/region/provider assignment; nil
	// when the scenario has no fleet section.
	Fleet *FleetAssignment
	// Chaos is the compiled fault schedule (sorted, validated).
	Chaos chaos.Schedule
	// ChaosFailures is Chaos lowered to the machine-killing subset.
	ChaosFailures failure.Schedule
	// Model is the Poisson background model; zero when Kind is fixed or
	// background failures are off.
	Model failure.Model
}

// FleetAssignment maps each rank to its fleet attributes. Slices are
// empty when the corresponding dimension is not declared. The
// assignment depends only on the scenario seed — not the variation — so
// one fleet underlies the whole campaign.
type FleetAssignment struct {
	Instances []string
	Regions   []string
	Providers []string
}

// RegionRanks returns the ascending ranks assigned to a region.
func (fa *FleetAssignment) RegionRanks(name string) []int { return ranksOf(fa.Regions, name) }

// ProviderRanks returns the ascending ranks assigned to a provider.
func (fa *FleetAssignment) ProviderRanks(name string) []int { return ranksOf(fa.Providers, name) }

func ranksOf(assigned []string, name string) []int {
	var out []int
	for r, a := range assigned {
		if a == name {
			out = append(out, r)
		}
	}
	return out
}

// Compile lowers the scenario: derive the job, resolve specs, assign
// the fleet, and compile + validate the chaos schedule. The scenario
// must already be valid (Parse validates; call Validate after manual
// construction).
func (s *Scenario) Compile() (*Compiled, error) {
	instance := s.Job.Instance
	if instance == "" {
		instance = heaviestTemplate(s.Fleet.Templates)
	}
	job, err := core.NewJob(core.JobSpec{
		Model:           s.Job.Model,
		Instance:        instance,
		Machines:        s.Job.Machines,
		Replicas:        s.Job.Replicas,
		RemoteBandwidth: s.Job.RemoteGbps * 1e9 / 8,
		Parallelism:     parallelisms[s.Job.Parallelism],
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	c := &Compiled{Scenario: s, Job: job}
	c.Specs = make([]baselines.Spec, len(s.Run.Specs))
	for i, name := range s.Run.Specs {
		c.Specs[i] = specsByName[name](job)
	}

	if s.Fleet != nil {
		c.Fleet = assignFleet(s.Job.Machines, s.Fleet, s.Seed)
	}

	sched, err := compileChaos(s, c.Fleet)
	if err != nil {
		return nil, err
	}
	if len(sched) > 0 {
		sched.Sort()
		if err := sched.Validate(s.Job.Machines); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		c.Chaos = sched
		c.ChaosFailures = sched.Failures()
	}

	if s.Failures.Kind == "poisson" {
		c.Model = failure.Model{
			PerInstancePerDay: s.Failures.PerInstancePerDay,
			HardwareFraction:  s.Failures.HardwareFraction,
		}
	}
	return c, nil
}

// FailureSchedule builds variation v's full failure schedule: the
// background distribution (seeded with Seed+v for Poisson; FixedRate is
// seed-free) merged with the chaos schedule's crash events. The merge
// collapses a rank hit by both at the same instant to one failure with
// HardwareFailed winning.
func (c *Compiled) FailureSchedule(v int) (failure.Schedule, error) {
	return c.appendFailureSchedule(new(scheduleBufs), v)
}

// appendFailureSchedule is FailureSchedule drawing the Poisson
// background into bufs.base and merging chaos into bufs.merged, so a
// campaign worker reuses both buffers across its variations. The result
// aliases one of them.
func (c *Compiled) appendFailureSchedule(bufs *scheduleBufs, v int) (failure.Schedule, error) {
	s := c.Scenario
	var base failure.Schedule
	var err error
	switch s.Failures.Kind {
	case "poisson":
		base, err = c.Model.AppendGenerate(bufs.base[:0], s.Job.Machines, s.Horizon, s.Seed+int64(v))
		bufs.base = base
	case "fixed":
		base, err = failure.FixedRate(s.Job.Machines, s.Failures.PerDay, s.Failures.HardwareFraction, s.Horizon)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: variation %d: %w", v, err)
	}
	if len(c.ChaosFailures) == 0 {
		return base, nil
	}
	bufs.merged = failure.AppendMerge(bufs.merged[:0], base, c.ChaosFailures)
	return bufs.merged, nil
}

// heaviestTemplate picks the job-sizing instance from a fleet: the
// highest weight, ties broken by lexicographically smallest name, so
// the choice is independent of declaration order.
func heaviestTemplate(ts []Template) string {
	best := ts[0]
	for _, t := range ts[1:] {
		if t.Weight > best.Weight || (t.Weight == best.Weight && t.Instance < best.Instance) {
			best = t
		}
	}
	return best.Instance
}

// assignFleet distributes n ranks across each declared dimension by
// largest-remainder quota, then shuffles each assignment with a PRNG
// seeded only by the scenario seed — region membership is scattered
// across ranks (as in a real heterogeneous fleet) but fixed for the
// whole campaign.
func assignFleet(n int, f *FleetConfig, seed int64) *FleetAssignment {
	rng := rand.New(rand.NewSource(seed))
	fa := &FleetAssignment{}
	if len(f.Templates) > 0 {
		ws := make([]Weight, len(f.Templates))
		for i, t := range f.Templates {
			ws[i] = Weight{Name: t.Instance, Weight: t.Weight}
		}
		fa.Instances = assignDimension(n, ws, rng)
	}
	fa.Regions = assignDimension(n, f.Regions, rng)
	fa.Providers = assignDimension(n, f.Providers, rng)
	return fa
}

// assignDimension splits n slots across weighted names: each name gets
// ⌊n·w/W⌋ slots, the remainder goes to the largest fractional parts
// (ties to the earlier entry), and the resulting block assignment is
// shuffled.
func assignDimension(n int, ws []Weight, rng *rand.Rand) []string {
	if len(ws) == 0 {
		return nil
	}
	var total float64
	for _, w := range ws {
		total += w.Weight
	}
	counts := make([]int, len(ws))
	fracs := make([]float64, len(ws))
	assigned := 0
	for i, w := range ws {
		exact := float64(n) * w.Weight / total
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for k := 0; assigned < n; k++ {
		counts[order[k%len(order)]]++
		assigned++
	}
	out := make([]string, 0, n)
	for i, w := range ws {
		for k := 0; k < counts[i]; k++ {
			out = append(out, w.Name)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// compileChaos lowers the declarative chaos entries onto chaos.Schedule
// events through chaos.AppendEntry, first resolving an outage kind
// through the fleet assignment to a crash or a correlated crash.
func compileChaos(s *Scenario, fleet *FleetAssignment) (chaos.Schedule, error) {
	var sched chaos.Schedule
	for i, cc := range s.Chaos {
		ev := cc.event()
		if field, name := cc.outage(); field != "" {
			if fleet == nil {
				return nil, fmt.Errorf("scenario: chaos[%d] (%s) needs a fleet section", i, cc.Kind)
			}
			ranks := fleet.RegionRanks(name)
			if field == "provider" {
				ranks = fleet.ProviderRanks(name)
			}
			if cc.MaxRanks > 0 && len(ranks) > cc.MaxRanks {
				ranks = ranks[:cc.MaxRanks]
			}
			if len(ranks) == 0 {
				return nil, fmt.Errorf("scenario: chaos[%d] (%s) %q resolves to no machines", i, cc.Kind, name)
			}
			if len(ranks) == 1 {
				ev.Kind = chaos.KindCrash
			}
			ev.Ranks = ranks
		}
		sched = chaos.AppendEntry(sched, i, ev, cc.Duration)
	}
	return sched, nil
}

// event is the entry's one event, or its window's opener, on the sorted
// union of rank and ranks; an outage's ranks resolve in compileChaos.
func (c ChaosConfig) event() chaos.Event {
	ranks := append([]int(nil), c.Ranks...)
	if c.Rank >= 0 {
		ranks = append(ranks, c.Rank)
	}
	sort.Ints(ranks)
	return chaos.Event{At: simclock.Time(c.At), Kind: chaosFields[c.Kind].kind, Ranks: ranks,
		Machine: machineStates[c.State], Factor: c.Factor, Jitter: c.Jitter}
}
