GO ?= go

.PHONY: all build vet test race ci bench bench-smoke tables

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI gate is ci.sh; this target runs it unchanged.
ci:
	./ci.sh

# Full benchmark suite (3 repetitions, allocation stats); the raw JSON
# event stream lands in BENCH_<date>.json for later comparison.
bench:
	./bench.sh

# One iteration of every benchmark — a fast CI smoke test that the
# benchmarks themselves still run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

tables:
	$(GO) run ./cmd/benchtables
