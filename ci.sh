#!/bin/sh
# CI gate: build, vet, gofmt, the full test suite under the race
# detector, and a one-iteration benchmark smoke run (benchmarks are part
# of the paper reproduction — they must at least still execute).
set -eux

go build ./...
go vet ./...
# Dependency direction: chaos builds and validates fault schedules and
# the agent arms them (agent.System.Arm), so chaos must never import the
# agent back.
if go list -deps ./internal/chaos | grep -qx 'gemini/internal/agent'; then
	echo "internal/chaos depends on internal/agent" >&2
	exit 1
fi
# Formatting gate over tracked Go files only, so the benchmark build's
# module cache under .bench_build/ stays out of it.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go test -race ./...
go test -run='^$' -bench=. -benchtime=1x -benchmem ./...

# The benchmark of record is a module of its own, so the root
# `go test ./...` never reaches its tests (every workload for two units,
# untraced and traced, checked against BENCHMARK.json).
(cd benchmark && go test -short ./...)

# Allocation gates, outside the race detector (race instrumentation
# allocates), in one anchored run of exactly these 29 tests:
#   fabric: steady-state fabric events and a warm flow's or copy's whole
#     start → complete → Release lifecycle allocate nothing, one more
#     executor iteration allocates nothing (Gemini, NoPipeline, Blocking),
#     and an execution allocates no more at 16 buffer parts than at 4
#     (Gemini, Blocking: a local shard is one copier run);
#   control plane: a running ticker's firings allocate nothing, a
#     healthy cluster's marginal allocations per heartbeat (a lease
#     renewal inside its start batch's one ticker) stay at a small
#     constant, a held cohort's fail → settle → re-hold cycle allocates
#     nothing, the root agent's health poll allocates nothing, a
#     warm iteration commit of every registered checkpoint strategy
#     (plan and execution, 16 and 1000 machines) allocates nothing, and
#     one healthy 16-machine iteration allocates only the store's
#     committed-iteration string (one rearmed iteration event);
#   availability kernel: the steady-state Monte-Carlo shard and the
#     kernel probe allocate nothing, one more profiled iteration
#     allocates nothing (comm ops hoisted, idle spans folded into
#     running sums), and a timeline build's allocations do not grow with
#     its op count (ZeRO-3 labels interned, other labels one string);
#   observability: disabled tracing, histogram observes and recorder
#     samples allocate nothing, and so does the campaign rollup's steady
#     state: a warm aligned registry Merge, the Reset that recycles
#     the merged run's registry, and re-resolving the ten run.* names;
#   campaign engine: a warm-key NewJob stays fully cache-resident (≤ 2
#     allocs — any accidental re-derivation blows through by three
#     orders of magnitude);
#   campaign observability: the disabled progress sink and the zero
#     runsim Observer add no allocations to the hot paths;
#   campaign hot path: a warm AppendGenerate into a buffer with room
#     allocates nothing (pooled generator, no per-schedule seeding
#     garbage), a warm one-worker smoke campaign stays within its
#     per-variation allocation budget of 7.5 (pooled schedule buffers,
#     run records written in place), and a warm observed chaos campaign
#     within 8 (per-run registries recycled by the streaming rollup,
#     chaos merged into a pooled buffer);
#   campaign report: a warm ComputeHash on an observed report encodes
#     into a pooled buffer and allocates only its hex digest (≤ 2
#     allocs, under 1 KiB per call), and at two or more workers, with
#     its run records encoded in parallel chunks, stays under 4 KiB per
#     call with no more allocations at 12 chunks than at 3;
#   checkpoint codec: Encode stays within 4 allocs per state and an
#     encode + decode round trip within 12 (the original codec: 20 and
#     63);
#   checkpoint engine: a round of full commits, the first included, one
#     of delta commits and one of refreshes allocate nothing (each commit
#     rewrites its slot's two generations in the flat slot table), and
#     ConsistentVersion, NewestCommitted and Coverage allocate nothing
#     while PlanRecovery allocates only its plan.
# A listed test that is renamed or deleted would match nothing and pass
# silently, so the step fails unless exactly 29 tests report PASS.
ALLOC_LOG="$(mktemp -t geminialloc.XXXXXX.log)"
if ! go test -count=1 -v -run '^(TestSteadyStateFabricEventsDoNotAllocate|TestFlowLifecycleAllocsZero|TestExecuteIterationAllocs|TestExecuteAllocsFlatInChunks|TestTickerFiringAllocsZero|TestHeartbeatSteadyStateAllocs|TestHeldCohortAllocsZero|TestRootCheckAllocsZero|TestPlanCommitAllocsZero|TestMonteCarloShardSteadyStateAllocsZero|TestSurvivesFailedAllocsZero|TestProfileWithJitterAllocationFlat|TestBuildTimelineSteadyStateAllocs|TestDisabledTracingAllocsZero|TestHistogramObserveAllocsZero|TestRecorderSampleAllocsZero|TestRegistryMergeAllocsZero|TestNewJobWarmKeyAllocs|TestProgressAllocsZero|TestRunZeroObserverAllocs|TestAppendGenerateWarmAllocsZero|TestCampaignWarmAllocsPerVariation|TestObservedCampaignWarmAllocsPerVariation|TestReportHashAllocs|TestReportHashAllocsParallel|TestCodecAllocations|TestCommitRoundAllocsZero|TestHealthyIterationAllocs|TestRecoveryQueriesAllocsZero)$' ./... > "$ALLOC_LOG" 2>&1; then
	cat "$ALLOC_LOG"
	exit 1
fi
ALLOC_PASSES="$(grep -c '^--- PASS: ' "$ALLOC_LOG" || true)"
rm -f "$ALLOC_LOG"
if [ "$ALLOC_PASSES" -ne 29 ]; then
	echo "allocation gates: $ALLOC_PASSES tests passed, want exactly 29" >&2
	exit 1
fi

# Scenario parser fuzz: arbitrary bytes through the YAML subset and the
# binder must never panic, and a small accepted scenario must compile
# without panicking (a non-finite weight once hung Compile).
go test -run='^$' -fuzz=FuzzParseScenario -fuzztime=10s ./internal/scenario

# Generated-chaos fuzz: any seed's schedule of the six builder kinds, on
# 16 machines under every strategy, must never leave a rank training on
# a failed machine, must leave well-formed Eq. 1 records, and must rerun
# byte-identically.
go test -run='^$' -fuzz=FuzzGeneratedChaos -fuzztime=10s ./internal/agent

# Trace linter fuzz: arbitrary bytes through trace.Lint must never panic
# and must lint the same way twice; a traced executor run's export seeds
# the corpus and must lint clean.
go test -run='^$' -fuzz=FuzzLint -fuzztime=10s ./internal/trace

# Executor options fuzz: any scheme value, buffer size, sub-buffer
# count, gamma and GPU budget on a two-machine job must return an error
# or a result, never panic, and must rerun to an equal result.
go test -run='^$' -fuzz=FuzzExecuteOptions -fuzztime=10s ./internal/training

# Exposition checker fuzz: arbitrary bytes through promcheck's parser
# must never panic and must get the same verdict twice.
go test -run='^$' -fuzz=FuzzCheckProm -fuzztime=10s ./cmd/promcheck

# Observability gates: the geminisim -trace export must parse as Chrome
# trace JSON with events from at least four subsystems — a refactor that
# silently unwires a subsystem's tracing fails here instead of shipping
# an empty track.
TRACE_OUT="$(mktemp -t geminitrace.XXXXXX.json)"
go run ./cmd/geminisim -days 1 -trace "$TRACE_OUT" > /dev/null
go run ./cmd/tracelint -min-categories 4 -min-events 1000 "$TRACE_OUT"
rm -f "$TRACE_OUT"
# The agent's checked-in golden trace must keep all three control-plane
# subsystems (agent, chaos and kvstore), so a regenerated golden that
# lost one of them fails here.
go run ./cmd/tracelint -min-categories 3 internal/agent/testdata/golden_trace.json

# Health-monitor export gates: the -metrics Prometheus exposition must
# validate with enough metric families, and the -timeline CSV must be a
# well-formed monotone timeline with one row per sampled iteration.
PROM_OUT="$(mktemp -t geminiprom.XXXXXX.prom)"
CSV_OUT="$(mktemp -t geminitl.XXXXXX.csv)"
go run ./cmd/geminisim -days 1 -metrics "$PROM_OUT" -timeline "$CSV_OUT" > /dev/null
go run ./cmd/promcheck -prom "$PROM_OUT" -min-families 10 -csv "$CSV_OUT" -min-rows 20
rm -f "$PROM_OUT" "$CSV_OUT"

# Strategy gates: every registered checkpoint strategy must survive the
# geminisim control-plane smoke (-strategy is the registry's public
# surface), and an unknown name must fail at job construction instead
# of misbehaving mid-run.
for s in adaptive gemini sparse tiered; do
	go run ./cmd/geminisim -days 1 -strategy "$s" > /dev/null
done
if go run ./cmd/geminisim -days 1 -strategy no-such-strategy > /dev/null 2>&1; then
	echo "geminisim accepted an unknown strategy name" >&2
	exit 1
fi
# The long-run inputs are validated as a scenario before anything runs:
# a negative horizon and one past the scenario horizon limit both fail.
for days in -1 4000; do
	if go run ./cmd/geminisim -days "$days" > /dev/null 2>&1; then
		echo "geminisim accepted -days $days" >&2
		exit 1
	fi
done

# Scenario-engine gates: both checked-in scenarios must parse and
# compile, the 1k smoke must reproduce its pinned aggregate hash for
# seed 7 (any drift in the simulator, the report shape, or the scenario
# compiler fails here), and the 10k campaign's JSON and HTML reports
# must be byte-identical at workers=1 vs workers=8.
go run ./cmd/campaign -validate examples/scenarios/smoke-1k.yaml
go run ./cmd/campaign -validate examples/scenarios/chaos-10k.yaml
CAMP_DIR="$(mktemp -d -t geminicamp.XXXXXX)"
go run ./cmd/campaign -quiet -json "$CAMP_DIR/smoke.json" -html "$CAMP_DIR/smoke.html" examples/scenarios/smoke-1k.yaml
grep -q '"hash": "352980d25448928c30d66858cac44f4644e059fff2148565f8e6b55ca9739727"' "$CAMP_DIR/smoke.json"
go run ./cmd/campaign -quiet -workers 1 -aggregate -json "$CAMP_DIR/w1.json" -html "$CAMP_DIR/w1.html" -prom "$CAMP_DIR/w1.prom" examples/scenarios/chaos-10k.yaml
go run ./cmd/campaign -quiet -workers 8 -aggregate -json "$CAMP_DIR/w8.json" -html "$CAMP_DIR/w8.html" -prom "$CAMP_DIR/w8.prom" examples/scenarios/chaos-10k.yaml
cmp "$CAMP_DIR/w1.json" "$CAMP_DIR/w8.json"
cmp "$CAMP_DIR/w1.html" "$CAMP_DIR/w8.html"
cmp "$CAMP_DIR/w1.prom" "$CAMP_DIR/w8.prom"
rm -rf "$CAMP_DIR"

# Campaign-observability gates. The aggregated campaign exposition for
# the 1k smoke is pinned by sha256 (any drift in the run.* instruments,
# the merge order, or the histogram exposition fails here) and must
# satisfy promcheck's histogram contract; and the flight recorder must
# replay the two worst smoke runs to bit-equal outcomes with lint-clean
# traces and monotone timelines.
OBS_DIR="$(mktemp -d -t geminiobs.XXXXXX)"
go run ./cmd/campaign -quiet -progress -aggregate -prom "$OBS_DIR/agg.prom" -json "$OBS_DIR/agg.json" examples/scenarios/smoke-1k.yaml 2> /dev/null
echo "c3b35edc0d0e7f9f0422845ae678c066a11e9ae326c42b9bb58551c073fa1aea  $OBS_DIR/agg.prom" | sha256sum -c - > /dev/null
go run ./cmd/promcheck -prom "$OBS_DIR/agg.prom" -min-families 10
go run ./cmd/campaign -quiet -flight 2 -flight-key wasted -flight-dir "$OBS_DIR" -json /dev/null examples/scenarios/smoke-1k.yaml
for k in 0 1; do
	go run ./cmd/tracelint -structure-only "$OBS_DIR/outlier-$k.trace.json"
	go run ./cmd/promcheck -prom "$OBS_DIR/outlier-$k.prom" -csv "$OBS_DIR/outlier-$k.timeline.csv" -min-rows 2
done
rm -rf "$OBS_DIR"

# Facade gates: the examples are the documented surface of the public
# gemini package — jobs configured through JobSpec fields (Replicas,
# Faults, Strategy, Tracer, Metrics) — and must keep running. Each
# asserts its own outcome and exits non-zero when a check fails: the
# integrity example on any failed byte verification, the chaos example
# when a recovery goes missing. The observability and campaignobs
# examples write trace and timeline files into their working
# directory, so they run in a temporary one.
go run ./examples/quickstart > /dev/null
go run ./examples/integrity > /dev/null
for ex in chaos failover interleaving; do
	go run "./examples/$ex" > /dev/null
done
EX_DIR="$(mktemp -d -t geminiex.XXXXXX)"
go build -o "$EX_DIR/observability" ./examples/observability
go build -o "$EX_DIR/campaignobs" ./examples/campaignobs
(cd "$EX_DIR" && ./observability > /dev/null && ./campaignobs > /dev/null)
rm -rf "$EX_DIR"
