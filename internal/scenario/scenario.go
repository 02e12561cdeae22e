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
	"os"
	"sort"
	"strconv"
	"strings"

	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/model"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
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
	// RemoteGbps is the persistent store bandwidth (0 = default).
	RemoteGbps float64
	// Strategy names the checkpoint strategy (default gemini).
	Strategy string
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
// hours (runsim's remote-checkpoint grid walks the horizon linearly) or
// allocate per-machine and per-variation state without bound.
const (
	// MaxHorizon caps the simulated duration of one variation.
	MaxHorizon = 3650 * simclock.Day
	// MaxMachines caps job.machines.
	MaxMachines = 100_000
	// MaxVariations caps the campaign width, the scenario's own and a
	// CampaignOptions.Variations override alike.
	MaxVariations = 1_000_000
)

// scenarioKinds is the chaos vocabulary the compiler accepts.
var scenarioKinds = map[string]bool{
	"crash": true, "correlated-crash": true, "partition": true,
	"straggler": true, "kv-outage": true, "lease-jitter": true,
	"region-outage": true, "provider-outage": true,
}

var parallelisms = map[string]bool{
	"": true, "zero-3": true, "data-parallel": true, "pipeline-parallel": true,
}

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
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	var raw any
	if strings.HasPrefix(trimmed, "{") {
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("scenario: json: %w", err)
		}
	} else {
		var err error
		if raw, err = parseYAML(data); err != nil {
			return nil, err
		}
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
		if err := c.validate(i, s.Fleet); err != nil {
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
	if j.Strategy != "" {
		if _, err := strategy.New(j.Strategy); err != nil {
			return fmt.Errorf("scenario: job.strategy: %w", err)
		}
	}
	if !parallelisms[j.Parallelism] {
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

func (c ChaosConfig) validate(i int, fleet *FleetConfig) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario: chaos[%d] (%s): %s", i, c.Kind, fmt.Sprintf(format, args...))
	}
	if !scenarioKinds[c.Kind] {
		return fmt.Errorf("scenario: chaos[%d] kind %q unknown", i, c.Kind)
	}
	if !(c.At >= 0) {
		return bad("at must be ≥ 0, got %v", c.At)
	}
	if c.MaxRanks < 0 {
		return bad("max_ranks must be ≥ 0, got %d", c.MaxRanks)
	}
	targets := len(c.Ranks)
	if c.Rank >= 0 {
		targets++
	}
	needState := func() error {
		if c.State != "software" && c.State != "hardware" {
			return bad("state must be software or hardware, got %q", c.State)
		}
		return nil
	}
	switch c.Kind {
	case "crash":
		if targets == 0 {
			return bad("needs rank or ranks")
		}
		return needState()
	case "correlated-crash":
		if targets < 2 {
			return bad("needs ≥ 2 ranks")
		}
		return needState()
	case "partition":
		if targets == 0 {
			return bad("needs ranks")
		}
		if !(c.Duration > 0) {
			return bad("needs a positive duration, got %v", c.Duration)
		}
	case "straggler":
		if targets == 0 {
			return bad("needs ranks")
		}
		if !(c.Factor > 0 && c.Factor <= 1) {
			return bad("factor %v out of (0,1]", c.Factor)
		}
		if !(c.Duration > 0) {
			return bad("needs a positive duration, got %v", c.Duration)
		}
	case "kv-outage":
		if !(c.Duration > 0) {
			return bad("needs a positive duration, got %v", c.Duration)
		}
	case "lease-jitter":
		if !(c.Jitter >= 0) {
			return bad("jitter must be ≥ 0, got %v", c.Jitter)
		}
	case "region-outage", "provider-outage":
		name, field, group := c.Region, "region", []Weight(nil)
		if c.Kind == "provider-outage" {
			name, field = c.Provider, "provider"
		}
		if name == "" {
			return bad("needs %s", field)
		}
		if fleet != nil {
			if c.Kind == "region-outage" {
				group = fleet.Regions
			} else {
				group = fleet.Providers
			}
		}
		if !hasWeight(group, name) {
			return bad("%s %q is not in the fleet", field, name)
		}
		return needState()
	}
	return nil
}

func hasWeight(ws []Weight, name string) bool {
	for _, w := range ws {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (r RunConfig) validate() error {
	for _, name := range r.Specs {
		switch name {
		case "gemini", "highfreq", "strawman":
		default:
			return fmt.Errorf("scenario: run.specs entry %q unknown (gemini, highfreq, strawman)", name)
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
// so unknown keys — usually typos — are rejected with their path.
type node struct {
	path string
	m    map[string]any
	seen map[string]bool
}

func newNode(path string, v any) (*node, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: %s must be a mapping, got %s", path, typeName(v))
	}
	return &node{path: path, m: m, seen: map[string]bool{}}, nil
}

func (n *node) get(key string) (any, bool) {
	n.seen[key] = true
	v, ok := n.m[key]
	return v, ok
}

// finish rejects unconsumed keys.
func (n *node) finish() error {
	var unknown []string
	for k := range n.m {
		if !n.seen[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("scenario: unknown key %q under %s", unknown[0], n.path)
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

func (n *node) str(key string, into *string) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	s, ok := v.(string)
	if !ok {
		return fmt.Errorf("scenario: %s.%s must be a string, got %s", n.path, key, typeName(v))
	}
	*into = s
	return nil
}

func (n *node) integer(key string, into *int) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	f, ok := v.(float64)
	if !ok || f != float64(int(f)) {
		return fmt.Errorf("scenario: %s.%s must be an integer, got %v", n.path, key, v)
	}
	*into = int(f)
	return nil
}

func (n *node) float(key string, into *float64) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	f, ok := v.(float64)
	if !ok {
		return fmt.Errorf("scenario: %s.%s must be a number, got %s", n.path, key, typeName(v))
	}
	*into = f
	return nil
}

// duration accepts a bare number (seconds) or a string with a unit
// suffix: 10d, 36h, 5m, 30s, 250ms, or a compound like 1h30m.
func (n *node) duration(key string, into *simclock.Duration) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	switch x := v.(type) {
	case float64:
		*into = simclock.Duration(x)
		return nil
	case string:
		d, err := parseDuration(x)
		if err != nil {
			return fmt.Errorf("scenario: %s.%s: %w", n.path, key, err)
		}
		*into = d
		return nil
	}
	return fmt.Errorf("scenario: %s.%s must be a duration (number of seconds or e.g. \"12h\"), got %s", n.path, key, typeName(v))
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

func (n *node) strList(key string, into *[]string) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	items, ok := v.([]any)
	if !ok {
		return fmt.Errorf("scenario: %s.%s must be a list of strings, got %s", n.path, key, typeName(v))
	}
	out := make([]string, 0, len(items))
	for _, item := range items {
		s, ok := item.(string)
		if !ok {
			return fmt.Errorf("scenario: %s.%s entries must be strings, got %s", n.path, key, typeName(item))
		}
		out = append(out, s)
	}
	*into = out
	return nil
}

func (n *node) intList(key string, into *[]int) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	items, ok := v.([]any)
	if !ok {
		return fmt.Errorf("scenario: %s.%s must be a list of integers, got %s", n.path, key, typeName(v))
	}
	out := make([]int, 0, len(items))
	for _, item := range items {
		f, ok := item.(float64)
		if !ok || f != float64(int(f)) {
			return fmt.Errorf("scenario: %s.%s entries must be integers, got %v", n.path, key, item)
		}
		out = append(out, int(f))
	}
	*into = out
	return nil
}

// weights binds a {name: weight} mapping into a name-sorted slice, so
// map iteration order never leaks into compilation.
func (n *node) weights(key string, into *[]Weight) error {
	v, ok := n.get(key)
	if !ok || v == nil {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("scenario: %s.%s must be a mapping of name: weight, got %s", n.path, key, typeName(v))
	}
	out := make([]Weight, 0, len(m))
	for name, wv := range m {
		f, ok := wv.(float64)
		if !ok {
			return fmt.Errorf("scenario: %s.%s[%s] must be a number, got %s", n.path, key, name, typeName(wv))
		}
		out = append(out, Weight{Name: name, Weight: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	*into = out
	return nil
}

func bindScenario(raw any) (*Scenario, error) {
	root, err := newNode("scenario", raw)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Seed: 1, Variations: 1}
	steps := []func() error{
		func() error { return root.str("name", &s.Name) },
		func() error { return root.str("description", &s.Description) },
		func() error {
			seed := int(s.Seed)
			if err := root.integer("seed", &seed); err != nil {
				return err
			}
			s.Seed = int64(seed)
			return nil
		},
		func() error { return root.integer("variations", &s.Variations) },
		func() error { return root.duration("horizon", &s.Horizon) },
		func() error { return bindJob(root, &s.Job) },
		func() error { return bindFleet(root, &s.Fleet) },
		func() error { return bindFailures(root, &s.Failures) },
		func() error { return bindChaos(root, &s.Chaos) },
		func() error { return bindRun(root, &s.Run) },
		func() error { return bindReport(root, &s.Report) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := root.finish(); err != nil {
		return nil, err
	}
	if len(s.Run.Specs) == 0 {
		s.Run.Specs = []string{"gemini", "highfreq", "strawman"}
	}
	return s, nil
}

func bindJob(root *node, j *JobConfig) error {
	v, ok := root.get("job")
	if !ok {
		return fmt.Errorf("scenario: job is required")
	}
	n, err := newNode("job", v)
	if err != nil {
		return err
	}
	j.Replicas = 2
	for _, step := range []func() error{
		func() error { return n.str("model", &j.Model) },
		func() error { return n.str("instance", &j.Instance) },
		func() error { return n.integer("machines", &j.Machines) },
		func() error { return n.integer("replicas", &j.Replicas) },
		func() error { return n.float("remote_gbps", &j.RemoteGbps) },
		func() error { return n.str("strategy", &j.Strategy) },
		func() error { return n.str("parallelism", &j.Parallelism) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return n.finish()
}

func bindFleet(root *node, into **FleetConfig) error {
	v, ok := root.get("fleet")
	if !ok || v == nil {
		return nil
	}
	n, err := newNode("fleet", v)
	if err != nil {
		return err
	}
	f := &FleetConfig{}
	if tv, ok := n.get("templates"); ok && tv != nil {
		items, ok := tv.([]any)
		if !ok {
			return fmt.Errorf("scenario: fleet.templates must be a list, got %s", typeName(tv))
		}
		for i, item := range items {
			tn, err := newNode(fmt.Sprintf("fleet.templates[%d]", i), item)
			if err != nil {
				return err
			}
			t := Template{Weight: 1}
			if err := tn.str("instance", &t.Instance); err != nil {
				return err
			}
			if err := tn.float("weight", &t.Weight); err != nil {
				return err
			}
			if err := tn.finish(); err != nil {
				return err
			}
			f.Templates = append(f.Templates, t)
		}
	}
	if err := n.weights("regions", &f.Regions); err != nil {
		return err
	}
	if err := n.weights("providers", &f.Providers); err != nil {
		return err
	}
	if err := n.finish(); err != nil {
		return err
	}
	*into = f
	return nil
}

func bindFailures(root *node, f *FailureConfig) error {
	v, ok := root.get("failures")
	if !ok || v == nil {
		return nil
	}
	n, err := newNode("failures", v)
	if err != nil {
		return err
	}
	for _, step := range []func() error{
		func() error { return n.str("kind", &f.Kind) },
		func() error { return n.float("per_instance_per_day", &f.PerInstancePerDay) },
		func() error { return n.float("per_day", &f.PerDay) },
		func() error { return n.float("hardware_fraction", &f.HardwareFraction) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return n.finish()
}

func bindChaos(root *node, into *[]ChaosConfig) error {
	v, ok := root.get("chaos")
	if !ok || v == nil {
		return nil
	}
	items, ok := v.([]any)
	if !ok {
		return fmt.Errorf("scenario: chaos must be a list, got %s", typeName(v))
	}
	for i, item := range items {
		n, err := newNode(fmt.Sprintf("chaos[%d]", i), item)
		if err != nil {
			return err
		}
		c := ChaosConfig{Rank: -1}
		for _, step := range []func() error{
			func() error { return n.duration("at", &c.At) },
			func() error { return n.str("kind", &c.Kind) },
			func() error { return n.integer("rank", &c.Rank) },
			func() error { return n.intList("ranks", &c.Ranks) },
			func() error { return n.str("state", &c.State) },
			func() error { return n.duration("duration", &c.Duration) },
			func() error { return n.float("factor", &c.Factor) },
			func() error { return n.duration("jitter", &c.Jitter) },
			func() error { return n.str("region", &c.Region) },
			func() error { return n.str("provider", &c.Provider) },
			func() error { return n.integer("max_ranks", &c.MaxRanks) },
		} {
			if err := step(); err != nil {
				return err
			}
		}
		if err := n.finish(); err != nil {
			return err
		}
		*into = append(*into, c)
	}
	return nil
}

func bindRun(root *node, r *RunConfig) error {
	v, ok := root.get("run")
	if !ok || v == nil {
		return nil
	}
	n, err := newNode("run", v)
	if err != nil {
		return err
	}
	for _, step := range []func() error{
		func() error { return n.strList("specs", &r.Specs) },
		func() error { return n.duration("replacement_delay", &r.ReplacementDelay) },
		func() error { return n.duration("simultaneity_window", &r.SimultaneityWindow) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return n.finish()
}

func bindReport(root *node, r *ReportConfig) error {
	v, ok := root.get("report")
	if !ok || v == nil {
		return nil
	}
	n, err := newNode("report", v)
	if err != nil {
		return err
	}
	if err := n.str("json", &r.JSON); err != nil {
		return err
	}
	if err := n.str("html", &r.HTML); err != nil {
		return err
	}
	return n.finish()
}
