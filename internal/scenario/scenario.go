// Package scenario is the declarative front door to the simulator: a
// YAML/JSON scenario file names a training job, a fleet composition, an
// MTBF-driven failure model, a chaos schedule, and the solutions to
// compare, and the package compiles it onto the existing engines —
// failure.Model / failure.FixedRate for the background schedule,
// internal/chaos for injected faults, the derivation cache for job
// artifacts, and internal/runsim for the §7.3 long-run accounting. A
// campaign expands one scenario into N seeded variations and fans them
// across internal/parallel; for a fixed scenario seed the aggregate
// report is bit-identical at any worker count.
package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"gemini/internal/baselines"
	"gemini/internal/chaos"
	"gemini/internal/cluster"
	"gemini/internal/core"
	"gemini/internal/failure"
	"gemini/internal/model"
	"gemini/internal/simclock"
	"gemini/internal/training"
)

// Scenario is one parsed scenario file.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Description is free-form prose carried into reports.
	Description string
	// Seed is the base seed; variation v runs with Seed+v.
	Seed int64
	// Variations is the campaign width (default 1).
	Variations int
	// Horizon is the simulated duration of every variation.
	Horizon simclock.Duration
	Job     JobConfig
	// Fleet optionally describes a heterogeneous fleet; nil means every
	// machine is Job.Instance.
	Fleet    *FleetConfig
	Failures FailureConfig
	Chaos    []ChaosConfig
	Run      RunConfig
	Report   ReportConfig
}

// JobConfig sizes the training job.
type JobConfig struct {
	// Model is a Table 2 name.
	Model string
	// Instance is a Table 1 name; optional when Fleet lists templates
	// (the heaviest template then sizes the job).
	Instance string
	// Machines is the cluster size N.
	Machines int
	// Replicas is the checkpoint replica count m (default 2).
	Replicas int
	// RemoteGbps is the persistent store's aggregate bandwidth in
	// gigabits per second (0 = the paper's 20 Gbps FSx default).
	RemoteGbps float64
	// Parallelism is zero-3, data-parallel, or pipeline-parallel.
	Parallelism string
}

// FleetConfig describes fleet composition. Weights are relative; the
// compiler assigns machines by largest-remainder quota and a seeded
// shuffle, so region and provider outages target realistic rank sets.
type FleetConfig struct {
	Templates []Template
	Regions   []Weight
	Providers []Weight
}

// Template is one weighted instance type in the fleet.
type Template struct {
	Instance string
	Weight   float64
}

// Weight is one weighted name (region or provider).
type Weight struct {
	Name   string
	Weight float64
}

// FailureConfig selects the background failure distribution.
type FailureConfig struct {
	// Kind is poisson or fixed; empty means no background failures
	// (chaos events may still kill machines).
	Kind string
	// PerInstancePerDay is the Poisson per-machine daily failure
	// probability (the paper's MTBF framing, e.g. OPT-175B's 0.015).
	PerInstancePerDay float64
	// PerDay is the fixed-spacing cluster-wide daily failure count.
	PerDay float64
	// HardwareFraction is the share of failures needing replacement.
	HardwareFraction float64
}

// ChaosConfig is one declarative fault. Window kinds (partition,
// straggler, kv-outage) pair an opener at At with a closer at
// At+Duration; outage kinds (region-outage, provider-outage) resolve to
// a correlated crash of the fleet ranks assigned to the named region or
// provider.
type ChaosConfig struct {
	At       simclock.Duration
	Kind     string
	Rank     int
	Ranks    []int
	State    string // software or hardware, for crash kinds
	Duration simclock.Duration
	Factor   float64
	Jitter   simclock.Duration
	Region   string
	Provider string
	// MaxRanks caps how many ranks an outage kills (0 = all assigned).
	MaxRanks int
}

// RunConfig tunes the long-run simulation.
type RunConfig struct {
	// Specs lists the solutions to compare: gemini, highfreq, strawman
	// (default all three).
	Specs              []string
	ReplacementDelay   simclock.Duration
	SimultaneityWindow simclock.Duration
}

// ReportConfig names default output paths (flags can override).
type ReportConfig struct {
	JSON string
	HTML string
}

// Size limits, so that one scenario line cannot tie up a campaign for
// hours (a variation's failure schedule, and the walk over it, grow
// with the horizon times the machine count) or allocate per-machine
// and per-variation state without bound.
const (
	// MaxHorizon caps the simulated duration of one variation.
	MaxHorizon = 3650 * simclock.Day
	// MaxMachines caps job.machines.
	MaxMachines = 100_000
	// MaxVariations caps the campaign width, the scenario's own and a
	// CampaignOptions.Variations override alike.
	MaxVariations = 1_000_000
)

// chaosFields is the chaos vocabulary the compiler accepts: for each
// kind, the chaos.Kind it lowers to (an outage resolving to one rank
// lowers to a crash) and the fields besides at and kind that its events
// read. The binder rejects any other field on an entry of that kind.
var chaosFields = map[string]struct {
	kind   chaos.Kind
	fields []string
}{
	"crash":            {chaos.KindCrash, []string{"rank", "ranks", "state"}},
	"correlated-crash": {chaos.KindCorrelatedCrash, []string{"rank", "ranks", "state"}},
	"partition":        {chaos.KindPartitionStart, []string{"rank", "ranks", "duration"}},
	"straggler":        {chaos.KindStragglerStart, []string{"rank", "ranks", "duration", "factor"}},
	"kv-outage":        {chaos.KindKVOutage, []string{"duration"}},
	"lease-jitter":     {chaos.KindLeaseJitter, []string{"jitter"}},
	"region-outage":    {chaos.KindCorrelatedCrash, []string{"region", "state", "max_ranks"}},
	"provider-outage":  {chaos.KindCorrelatedCrash, []string{"provider", "state", "max_ranks"}},
}

// The scenario's other enum vocabularies, each read by both Validate
// and Compile: job.parallelism (empty means ZeRO-3), the run.specs
// names, and a crash's state.
var (
	parallelisms = map[string]training.Parallelism{
		"": training.ZeRO3, "zero-3": training.ZeRO3,
		"data-parallel": training.DataParallel, "pipeline-parallel": training.PipelineParallel,
	}
	specsByName = map[string]func(*core.Job) baselines.Spec{
		"gemini": (*core.Job).GeminiSpec, "highfreq": (*core.Job).HighFreqSpec, "strawman": (*core.Job).StrawmanSpec,
	}
	machineStates = map[string]cluster.MachineState{
		"software": cluster.SoftwareFailed, "hardware": cluster.HardwareFailed,
	}
)

// Load reads and parses a scenario file. The format is sniffed: content
// whose first non-space byte is '{' is JSON, everything else YAML.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Parse decodes a scenario from YAML or JSON and validates it.
func Parse(data []byte) (*Scenario, error) {
	raw, err := decode(data)
	if err != nil {
		return nil, err
	}
	s, err := bindScenario(raw)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decode returns the raw value tree of a scenario: content whose first
// non-space byte is '{' is JSON, everything else YAML.
func decode(data []byte) (any, error) {
	if strings.HasPrefix(strings.TrimLeft(string(data), " \t\r\n"), "{") {
		var raw any
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("scenario: json: %w", err)
		}
		return raw, nil
	}
	return parseYAML(data)
}

// Validate checks everything checkable without compiling: names resolve
// against the catalogs, weights and rates are in range (every range
// check is a negated comparison, so NaN fails it), sizes are within
// their limits, chaos entries carry the fields their kind needs.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if !(s.Horizon > 0) { // NaN fails too
		return fmt.Errorf("scenario: horizon must be positive, got %v", s.Horizon)
	}
	if s.Variations < 1 {
		return fmt.Errorf("scenario: variations must be ≥ 1, got %d", s.Variations)
	}
	if err := s.Job.validate(s.Fleet); err != nil {
		return err
	}
	if s.Fleet != nil {
		if err := s.Fleet.validate(); err != nil {
			return err
		}
	}
	if err := s.Failures.validate(); err != nil {
		return err
	}
	if err := s.checkScheduleSize(); err != nil {
		return err
	}
	if err := s.checkLimits(); err != nil {
		return err
	}
	for i, c := range s.Chaos {
		if err := c.validate(i, s.Horizon, s.Job.Machines, s.Fleet); err != nil {
			return err
		}
	}
	return s.Run.validate()
}

// checkScheduleSize rejects a background failure model whose schedule
// would exceed failure.MaxExpectedEvents per variation, naming the
// fields that multiply into it.
func (s *Scenario) checkScheduleSize() error {
	switch s.Failures.Kind {
	case "poisson":
		m := failure.Model{PerInstancePerDay: s.Failures.PerInstancePerDay}
		if err := m.CheckSize(s.Job.Machines, s.Horizon); err != nil {
			return fmt.Errorf("scenario: job.machines × failures.per_instance_per_day × horizon is too large: %w", err)
		}
	case "fixed":
		if err := failure.CheckFixedRateSize(s.Failures.PerDay, s.Horizon); err != nil {
			return fmt.Errorf("scenario: failures.per_day × horizon is too large: %w", err)
		}
	}
	return nil
}

// checkLimits rejects a scenario past the size limits. It runs after
// checkScheduleSize, so a failure model too large for its horizon is
// reported with every field of its product.
func (s *Scenario) checkLimits() error {
	if s.Horizon > MaxHorizon {
		return fmt.Errorf("scenario: horizon %gd exceeds the limit of %gd",
			float64(s.Horizon/simclock.Day), float64(MaxHorizon/simclock.Day))
	}
	if s.Job.Machines > MaxMachines {
		return fmt.Errorf("scenario: job.machines %d exceeds the limit of %d", s.Job.Machines, MaxMachines)
	}
	if s.Variations > MaxVariations {
		return fmt.Errorf("scenario: variations %d exceeds the limit of %d", s.Variations, MaxVariations)
	}
	return nil
}

func (j JobConfig) validate(fleet *FleetConfig) error {
	if j.Model == "" {
		return fmt.Errorf("scenario: job.model is required")
	}
	if _, err := model.ByName(j.Model); err != nil {
		return fmt.Errorf("scenario: job.model: %w", err)
	}
	if j.Instance == "" && (fleet == nil || len(fleet.Templates) == 0) {
		return fmt.Errorf("scenario: job.instance is required without fleet templates")
	}
	if j.Instance != "" {
		if _, err := cluster.InstanceByName(j.Instance); err != nil {
			return fmt.Errorf("scenario: job.instance: %w", err)
		}
	}
	if j.Machines <= 0 {
		return fmt.Errorf("scenario: job.machines must be positive, got %d", j.Machines)
	}
	if j.Replicas < 0 {
		return fmt.Errorf("scenario: job.replicas must be ≥ 0, got %d", j.Replicas)
	}
	if !(j.RemoteGbps >= 0) {
		return fmt.Errorf("scenario: job.remote_gbps must be ≥ 0, got %v", j.RemoteGbps)
	}
	if _, ok := parallelisms[j.Parallelism]; !ok {
		return fmt.Errorf("scenario: job.parallelism %q unknown (zero-3, data-parallel, pipeline-parallel)", j.Parallelism)
	}
	return nil
}

func (f *FleetConfig) validate() error {
	for i, t := range f.Templates {
		if _, err := cluster.InstanceByName(t.Instance); err != nil {
			return fmt.Errorf("scenario: fleet.templates[%d]: %w", i, err)
		}
		if !(t.Weight > 0) {
			return fmt.Errorf("scenario: fleet.templates[%d] (%s) weight must be positive, got %v", i, t.Instance, t.Weight)
		}
	}
	for _, group := range []struct {
		name string
		ws   []Weight
	}{{"regions", f.Regions}, {"providers", f.Providers}} {
		for _, w := range group.ws {
			if !(w.Weight > 0) {
				return fmt.Errorf("scenario: fleet.%s[%s] weight must be positive, got %v", group.name, w.Name, w.Weight)
			}
		}
	}
	return nil
}

func (f FailureConfig) validate() error {
	switch f.Kind {
	case "":
		if f.PerInstancePerDay != 0 || f.PerDay != 0 {
			return fmt.Errorf("scenario: failures needs kind: poisson or fixed when rates are set")
		}
		return nil
	case "poisson":
		if f.PerDay != 0 {
			return fmt.Errorf("scenario: failures.per_day belongs to kind: fixed (poisson takes per_instance_per_day)")
		}
		if !(f.PerInstancePerDay >= 0 && f.PerInstancePerDay <= 1) { // NaN fails too
			return fmt.Errorf("scenario: failures.per_instance_per_day %v out of [0,1]", f.PerInstancePerDay)
		}
	case "fixed":
		if f.PerInstancePerDay != 0 {
			return fmt.Errorf("scenario: failures.per_instance_per_day belongs to kind: poisson (fixed takes per_day)")
		}
		if !(f.PerDay >= 0) {
			return fmt.Errorf("scenario: failures.per_day must be ≥ 0, got %v", f.PerDay)
		}
	default:
		return fmt.Errorf("scenario: failures.kind %q unknown (poisson or fixed)", f.Kind)
	}
	if !(f.HardwareFraction >= 0 && f.HardwareFraction <= 1) {
		return fmt.Errorf("scenario: failures.hardware_fraction %v out of [0,1]", f.HardwareFraction)
	}
	return nil
}

func (c ChaosConfig) validate(i int, horizon simclock.Duration, machines int, fleet *FleetConfig) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario: chaos[%d] (%s): %s", i, c.Kind, fmt.Sprintf(format, args...))
	}
	kind, ok := chaosFields[c.Kind]
	if !ok {
		return fmt.Errorf("scenario: chaos[%d] kind %q unknown", i, c.Kind)
	}
	// An event at or past the horizon would never fire, yet would still
	// count in the report's chaos_events.
	if !(c.At >= 0 && c.At < horizon) {
		return fmt.Errorf("scenario: chaos[%d].at must be in [0, horizon %v), got %v", i, horizon, c.At)
	}
	if c.MaxRanks < 0 {
		return bad("max_ranks must be ≥ 0, got %d", c.MaxRanks)
	}
	if c.Rank >= machines {
		return fmt.Errorf("scenario: chaos[%d].rank %d out of range [0,%d) (job.machines)", i, c.Rank, machines)
	}
	for j, r := range c.Ranks {
		if r < 0 || r >= machines {
			return fmt.Errorf("scenario: chaos[%d].ranks[%d] %d out of range [0,%d) (job.machines)", i, j, r, machines)
		}
	}
	field, name := c.outage()
	if field != "" {
		if name == "" {
			return bad("needs %s", field)
		}
		var group []Weight
		if fleet != nil {
			group = fleet.Regions
			if field == "provider" {
				group = fleet.Providers
			}
		}
		if !slices.ContainsFunc(group, func(w Weight) bool { return w.Name == name }) {
			return bad("%s %q is not in the fleet", field, name)
		}
	}
	if _, ok := machineStates[c.State]; !ok && slices.Contains(kind.fields, "state") {
		return bad("state must be software or hardware, got %q", c.State)
	}
	if !(c.Duration > 0) && slices.Contains(kind.fields, "duration") {
		return bad("needs a positive duration, got %v", c.Duration)
	}
	if field != "" {
		return nil // an outage's ranks resolve at Compile
	}
	// Every rule of the kind itself is chaos.Event.Check's.
	for _, ev := range chaos.AppendEntry(nil, i, c.event(), c.Duration) {
		if err := ev.Check(machines); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// outage returns the fleet field, region or provider, that names an
// outage entry's domain, and its value; field is empty for other kinds.
func (c ChaosConfig) outage() (field, name string) {
	switch c.Kind {
	case "region-outage":
		return "region", c.Region
	case "provider-outage":
		return "provider", c.Provider
	}
	return "", ""
}

func (r RunConfig) validate() error {
	for i, name := range r.Specs {
		if specsByName[name] == nil {
			return fmt.Errorf("scenario: run.specs entry %q unknown (gemini, highfreq, strawman)", name)
		}
		if slices.Contains(r.Specs[:i], name) {
			return fmt.Errorf("scenario: run.specs lists %q twice", name)
		}
	}
	if !(r.ReplacementDelay >= 0) {
		return fmt.Errorf("scenario: run.replacement_delay must be ≥ 0, got %v", r.ReplacementDelay)
	}
	if !(r.SimultaneityWindow >= 0) {
		return fmt.Errorf("scenario: run.simultaneity_window must be ≥ 0, got %v", r.SimultaneityWindow)
	}
	return nil
}

// ---- binding: raw parsed values → typed Scenario ----

// node wraps one raw mapping and tracks which keys the binder consumed,
// so unknown keys — usually typos — are rejected with their path. Every
// node of one bind shares the bind's first error: once it is set, every
// read is a no-op, so the binders read straight through and the first
// failure in read order is the one reported. A nil node stands for an
// absent section, and its reads are no-ops too.
type node struct {
	path string
	m    map[string]any
	seen map[string]bool
	err  *error
}

// ok reports whether n is present and the bind has not failed.
func (n *node) ok() bool { return n != nil && *n.err == nil }

// fail records the bind's first error.
func (n *node) fail(format string, args ...any) {
	if n.ok() {
		*n.err = fmt.Errorf(format, args...)
	}
}

// get consumes key and returns its value: nil when the key is absent or
// null, or the bind has failed.
func (n *node) get(key string) any {
	if !n.ok() {
		return nil
	}
	n.seen[key] = true
	return n.m[key]
}

// mapping returns v as a node at path, failing the bind (and returning
// nil) when v is not a mapping.
func (n *node) mapping(path string, v any) *node {
	m, ok := v.(map[string]any)
	if !ok {
		n.fail("scenario: %s must be a mapping, got %s", path, typeName(v))
	}
	if !n.ok() {
		return nil
	}
	return &node{path: path, m: m, seen: map[string]bool{}, err: n.err}
}

// section returns the mapping under a root key; nil when it is absent.
func (n *node) section(key string) *node {
	v := n.get(key)
	if v == nil {
		return nil
	}
	return n.mapping(key, v)
}

// list returns the list under key, failing the bind when it is not one.
func (n *node) list(key, path string) []any {
	v := n.get(key)
	items, ok := v.([]any)
	if v != nil && !ok {
		n.fail("scenario: %s must be a list, got %s", path, typeName(v))
	}
	return items
}

// finish rejects unconsumed keys.
func (n *node) finish() {
	if !n.ok() {
		return
	}
	if k, found := firstKey(n.m, func(k string) bool { return !n.seen[k] }); found {
		n.fail("scenario: unknown key %q under %s", k, n.path)
	}
}

// firstKey returns the alphabetically first key of m that pred accepts,
// so an error naming one of several bad keys names the same one on every
// parse.
func firstKey(m map[string]any, pred func(string) bool) (first string, found bool) {
	for k := range m {
		if pred(k) && (!found || k < first) {
			first, found = k, true
		}
	}
	return first, found
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "nothing"
	case map[string]any:
		return "a mapping"
	case []any:
		return "a list"
	case string:
		return "a string"
	case float64:
		return "a number"
	case bool:
		return "a boolean"
	}
	return fmt.Sprintf("%T", v)
}

func (n *node) str(key string, into *string) {
	switch v := n.get(key).(type) {
	case nil:
	case string:
		*into = v
	default:
		n.fail("scenario: %s.%s must be a string, got %s", n.path, key, typeName(v))
	}
}

// asInt returns v as an int when it is an integral number.
func asInt(v any) (int, bool) {
	f, ok := v.(float64)
	return int(f), ok && f == float64(int(f))
}

func (n *node) integer(key string, into *int) {
	v := n.get(key)
	if v == nil {
		return
	}
	if i, ok := asInt(v); ok {
		*into = i
		return
	}
	n.fail("scenario: %s.%s must be an integer, got %v", n.path, key, v)
}

func (n *node) float(key string, into *float64) {
	switch v := n.get(key).(type) {
	case nil:
	case float64:
		if n.finite(n.path+"."+key, v) {
			*into = v
		}
	default:
		n.fail("scenario: %s.%s must be a number, got %s", n.path, key, typeName(v))
	}
}

// finite rejects the infinities and NaN that YAML scalars such as inf
// and nan parse to: an infinite weight or rate passes every range check
// and then poisons the arithmetic downstream.
func (n *node) finite(name string, f float64) bool {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		n.fail("scenario: %s must be a finite number, got %v", name, f)
		return false
	}
	return true
}

// duration accepts a bare number (seconds) or a string with a unit
// suffix: 10d, 36h, 5m, 30s, 250ms, or a compound like 1h30m.
func (n *node) duration(key string, into *simclock.Duration) {
	switch v := n.get(key).(type) {
	case nil:
	case float64:
		if n.finite(n.path+"."+key, v) {
			*into = simclock.Duration(v)
		}
	case string:
		d, err := parseDuration(v)
		if err != nil {
			n.fail("scenario: %s.%s: %w", n.path, key, err)
		} else if n.finite(n.path+"."+key, d.Seconds()) {
			*into = d
		}
	default:
		n.fail("scenario: %s.%s must be a duration (number of seconds or e.g. \"12h\"), got %s", n.path, key, typeName(v))
	}
}

var durationUnits = []struct {
	suffix  string
	seconds float64
}{
	{"ms", 1e-3}, {"d", simclock.Day.Seconds()}, {"h", 3600}, {"m", 60}, {"s", 1},
}

func parseDuration(s string) (simclock.Duration, error) {
	total, rest := 0.0, strings.TrimSpace(s)
	if rest == "" {
		return 0, fmt.Errorf("empty duration")
	}
	for rest != "" {
		// Longest numeric prefix, then a unit.
		i := 0
		for i < len(rest) && (rest[i] == '.' || rest[i] == '-' || (rest[i] >= '0' && rest[i] <= '9')) {
			i++
		}
		f, err := strconv.ParseFloat(rest[:i], 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q", s)
		}
		rest = rest[i:]
		matched := false
		for _, u := range durationUnits {
			if strings.HasPrefix(rest, u.suffix) {
				total += f * u.seconds
				rest = rest[len(u.suffix):]
				matched = true
				break
			}
		}
		if !matched {
			return 0, fmt.Errorf("bad duration %q (units: d h m s ms)", s)
		}
	}
	return simclock.Duration(total), nil
}

// elems binds the list under key entry by entry; noun names the entry
// type in errors and show renders a bad entry.
func elems[T any](n *node, key, noun string, conv func(any) (T, bool), show func(any) string, into *[]T) {
	v := n.get(key)
	if v == nil {
		return
	}
	items, ok := v.([]any)
	if !ok {
		n.fail("scenario: %s.%s must be a list of %s, got %s", n.path, key, noun, typeName(v))
		return
	}
	out := make([]T, 0, len(items))
	for _, item := range items {
		x, ok := conv(item)
		if !ok {
			n.fail("scenario: %s.%s entries must be %s, got %s", n.path, key, noun, show(item))
			return
		}
		out = append(out, x)
	}
	*into = out
}

func asString(v any) (string, bool) {
	s, ok := v.(string)
	return s, ok
}

// weights binds a {name: weight} mapping into a name-sorted slice, in
// name order, so neither the result nor the error that names a bad
// entry depends on map iteration order.
func (n *node) weights(key string, into *[]Weight) {
	v := n.get(key)
	if v == nil {
		return
	}
	m, ok := v.(map[string]any)
	if !ok {
		n.fail("scenario: %s.%s must be a mapping of name: weight, got %s", n.path, key, typeName(v))
		return
	}
	out := make([]Weight, 0, len(m))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		f, ok := m[name].(float64)
		if !ok {
			n.fail("scenario: %s.%s[%s] must be a number, got %s", n.path, key, name, typeName(m[name]))
			return
		}
		if !n.finite(fmt.Sprintf("%s.%s[%s]", n.path, key, name), f) {
			return
		}
		out = append(out, Weight{Name: name, Weight: f})
	}
	*into = out
}

func bindScenario(raw any) (*Scenario, error) {
	var err error
	root := (&node{err: &err}).mapping("scenario", raw)
	s := &Scenario{Seed: 1, Variations: 1}
	root.str("name", &s.Name)
	root.str("description", &s.Description)
	seed := int(s.Seed)
	root.integer("seed", &seed)
	s.Seed = int64(seed)
	root.integer("variations", &s.Variations)
	root.duration("horizon", &s.Horizon)
	bindJob(root, &s.Job)
	s.Fleet = bindFleet(root.section("fleet"))
	bindFailures(root.section("failures"), &s.Failures)
	s.Chaos = bindChaos(root)
	bindRun(root.section("run"), &s.Run)
	bindReport(root.section("report"), &s.Report)
	root.finish()
	if err != nil {
		return nil, err
	}
	if len(s.Run.Specs) == 0 {
		s.Run.Specs = []string{"gemini", "highfreq", "strawman"}
	}
	return s, nil
}

func bindJob(root *node, j *JobConfig) {
	if root.ok() {
		if _, ok := root.m["job"]; !ok {
			root.fail("scenario: job is required")
		}
	}
	n := root.mapping("job", root.get("job"))
	j.Replicas = 2
	n.str("model", &j.Model)
	n.str("instance", &j.Instance)
	n.integer("machines", &j.Machines)
	n.integer("replicas", &j.Replicas)
	n.float("remote_gbps", &j.RemoteGbps)
	n.str("parallelism", &j.Parallelism)
	n.finish()
}

func bindFleet(n *node) *FleetConfig {
	if n == nil {
		return nil
	}
	f := &FleetConfig{}
	for i, item := range n.list("templates", "fleet.templates") {
		tn := n.mapping(fmt.Sprintf("fleet.templates[%d]", i), item)
		t := Template{Weight: 1}
		tn.str("instance", &t.Instance)
		tn.float("weight", &t.Weight)
		tn.finish()
		f.Templates = append(f.Templates, t)
	}
	n.weights("regions", &f.Regions)
	n.weights("providers", &f.Providers)
	n.finish()
	return f
}

func bindFailures(n *node, f *FailureConfig) {
	n.str("kind", &f.Kind)
	n.float("per_instance_per_day", &f.PerInstancePerDay)
	n.float("per_day", &f.PerDay)
	n.float("hardware_fraction", &f.HardwareFraction)
	n.finish()
}

func bindChaos(root *node) []ChaosConfig {
	var out []ChaosConfig
	for i, item := range root.list("chaos", "chaos") {
		n := root.mapping(fmt.Sprintf("chaos[%d]", i), item)
		c := ChaosConfig{Rank: -1}
		n.duration("at", &c.At)
		n.str("kind", &c.Kind)
		n.integer("rank", &c.Rank)
		elems(n, "ranks", "integers", asInt, func(v any) string { return fmt.Sprint(v) }, &c.Ranks)
		n.str("state", &c.State)
		n.duration("duration", &c.Duration)
		n.float("factor", &c.Factor)
		n.duration("jitter", &c.Jitter)
		n.str("region", &c.Region)
		n.str("provider", &c.Provider)
		n.integer("max_ranks", &c.MaxRanks)
		n.finish()
		c.checkFields(n)
		out = append(out, c)
	}
	return out
}

// checkFields rejects a set field the entry's kind never reads, and an
// explicit negative rank (the binder's -1 default means "unset", so one
// would otherwise vanish). An unknown kind is left to Validate.
func (c ChaosConfig) checkFields(n *node) {
	if !n.ok() {
		return
	}
	if n.m["rank"] != nil && c.Rank < 0 {
		n.fail("scenario: %s.rank must be ≥ 0, got %d", n.path, c.Rank)
		return
	}
	kind, ok := chaosFields[c.Kind]
	if !ok {
		return
	}
	stray := func(k string) bool {
		return n.m[k] != nil && k != "at" && k != "kind" && !slices.Contains(kind.fields, k)
	}
	if k, found := firstKey(n.m, stray); found {
		n.fail("scenario: %s.%s does not apply to %s", n.path, k, c.Kind)
	}
}

func bindRun(n *node, r *RunConfig) {
	elems(n, "specs", "strings", asString, typeName, &r.Specs)
	n.duration("replacement_delay", &r.ReplacementDelay)
	n.duration("simultaneity_window", &r.SimultaneityWindow)
	n.finish()
}

func bindReport(n *node, r *ReportConfig) {
	n.str("json", &r.JSON)
	n.str("html", &r.HTML)
	n.finish()
}
