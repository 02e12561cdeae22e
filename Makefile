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

# The benchmark of record: every workload in turn (see benchmark/README.md).
bench:
	bash benchmark/run.sh

# One iteration of every benchmark — a fast CI smoke test that the
# benchmarks themselves still run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

tables:
	$(GO) run ./cmd/benchtables
