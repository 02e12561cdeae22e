#!/bin/sh
# CI gate: build, vet, the full test suite under the race detector, and
# a one-iteration benchmark smoke run (benchmarks are part of the paper
# reproduction — they must at least still execute).
set -eux

go build ./...
go vet ./...
go test -race ./...
go test -run='^$' -bench=. -benchtime=1x -benchmem ./...

# The benchmark of record is a module of its own, so the root
# `go test ./...` never reaches its tests (every workload for two units,
# untraced and traced, checked against BENCHMARK.json).
(cd benchmark && go test -short ./...)

# Allocation gates, outside the race detector (race instrumentation
# allocates), in one anchored run of exactly these 17 tests:
#   fabric: steady-state fabric events and a warm flow's or copy's whole
#     start → complete → Release lifecycle allocate nothing, and the
#     executor's marginal allocations per iteration stay bounded;
#   control plane: a running ticker's firings allocate nothing, and a
#     healthy cluster's marginal allocations per heartbeat stay at a
#     small constant;
#   availability kernel: the steady-state Monte-Carlo shard and the
#     kernel probe allocate nothing, and the profiling loop stays
#     allocation-flat (comm ops hoisted, labels interned);
#   observability: disabled tracing, histogram observes and recorder
#     samples allocate nothing;
#   campaign engine: a warm-key NewJob stays fully cache-resident (≤ 2
#     allocs — any accidental re-derivation blows through by three
#     orders of magnitude);
#   campaign observability: the disabled progress sink and the zero
#     runsim Observer add no allocations to the hot paths;
#   campaign hot path: a warm AppendGenerate into a buffer with room
#     allocates nothing (pooled generator, no per-schedule seeding
#     garbage), and a warm one-worker smoke campaign stays within its
#     per-variation allocation budget (pooled schedule buffers).
# A listed test that is renamed or deleted would match nothing and pass
# silently, so the step fails unless exactly 17 tests report PASS.
ALLOC_LOG="$(mktemp -t geminialloc.XXXXXX.log)"
if ! go test -count=1 -v -run '^(TestSteadyStateFabricEventsDoNotAllocate|TestFlowLifecycleAllocsZero|TestExecuteIterationAllocs|TestTickerFiringAllocsZero|TestHeartbeatSteadyStateAllocs|TestMonteCarloShardSteadyStateAllocsZero|TestSurvivesFailedAllocsZero|TestProfileWithJitterAllocationFlat|TestBuildTimelineSteadyStateAllocs|TestDisabledTracingAllocsZero|TestHistogramObserveAllocsZero|TestRecorderSampleAllocsZero|TestNewJobWarmKeyAllocs|TestProgressAllocsZero|TestRunZeroObserverAllocs|TestAppendGenerateWarmAllocsZero|TestCampaignWarmAllocsPerVariation)$' ./... > "$ALLOC_LOG" 2>&1; then
	cat "$ALLOC_LOG"
	exit 1
fi
ALLOC_PASSES="$(grep -c '^--- PASS: ' "$ALLOC_LOG" || true)"
rm -f "$ALLOC_LOG"
if [ "$ALLOC_PASSES" -ne 17 ]; then
	echo "allocation gates: $ALLOC_PASSES tests passed, want exactly 17" >&2
	exit 1
fi

# Observability gates: the geminisim -trace export must parse as Chrome
# trace JSON with events from at least four subsystems — a refactor that
# silently unwires a subsystem's tracing fails here instead of shipping
# an empty track.
TRACE_OUT="$(mktemp -t geminitrace.XXXXXX.json)"
go run ./cmd/geminisim -days 1 -trace "$TRACE_OUT" > /dev/null
go run ./cmd/tracelint -min-categories 4 -min-events 1000 "$TRACE_OUT"
rm -f "$TRACE_OUT"

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

# benchdiff must parse a checked-in snapshot and agree a snapshot equals
# itself at threshold 0 (the derivation-cache race hammer already ran
# above, inside `go test -race ./...`).
BENCH_BASE="$(ls BENCH_*.json | sort | tail -1)"
go run ./cmd/benchdiff -threshold 0 "$BENCH_BASE" "$BENCH_BASE" > /dev/null

# Scenario-engine gates: both checked-in scenarios must parse and
# compile, the 1k smoke must reproduce its pinned aggregate hash for
# seed 7 (any drift in the simulator, the report shape, or the scenario
# compiler fails here), and the 10k campaign's JSON and HTML reports
# must be byte-identical at workers=1 vs workers=8. geminisim's
# -scenario path must run the same campaign.
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
go run ./cmd/geminisim -scenario examples/scenarios/smoke-1k.yaml > /dev/null

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

# Facade gates: the examples are the documented surface of the options
# API (WithStrategy/WithTracer/WithMetrics) and must keep running.
go run ./examples/quickstart > /dev/null
EX_DIR="$(mktemp -d -t geminiex.XXXXXX)"
go build -o "$EX_DIR/observability" ./examples/observability
(cd "$EX_DIR" && ./observability > /dev/null)
rm -rf "$EX_DIR"
