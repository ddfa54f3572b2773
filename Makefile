GO ?= go
BENCHTIME ?= 1x
GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo local)
GIT_MSG := $(shell git log -1 --format=%s 2>/dev/null || echo local)

.PHONY: all fmt vet build test race dfsperf bench bench-compare ci dfsd dfsload

all: ci

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 45m ./...

# dfsperf vets and tests the benchmark module, which has its own go.mod and
# so is outside ./... above.
dfsperf:
	cd cmd/dfsperf && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test -short ./...

# bench runs the top-level Benchmark* functions plus the numeric-kernel,
# search-driver, evasion-attack, fan-out scheduling, evaluation-store and
# dataset-materialization micro-benchmarks and appends the parsed results
# (name, ns/op, B/op, allocs/op) as one entry to dev/bench/data.js, the
# repo's one benchmark trajectory (github-action-benchmark format). Override
# BENCHTIME for steadier numbers, e.g. `make bench BENCHTIME=3x`, and GIT_MSG
# to label the entry, e.g. `make bench GIT_MSG='after memo rework'`.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ \
		. ./internal/linalg ./internal/ranking ./internal/model ./internal/search ./internal/attack \
		./internal/serve ./internal/evalstore ./internal/synth ./internal/dataset \
		| $(GO) run ./cmd/benchjson -gha dev/bench/data.js \
			-commit "$(GIT_SHA)" -commit-message "$(GIT_MSG)"

# bench-compare is the CI regression gate: it runs the same benchmarks but
# writes nothing — the run is diffed against the newest tracked value of
# each series in dev/bench/data.js and the target fails when ns/op or
# allocs/op grew by more than 10% (tune with -compare-threshold). The
# fan-out scheduling benchmarks measure wall clock over real sleeps, so
# they are tracked for trajectory but exempt from the gate.
bench-compare:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ \
		. ./internal/linalg ./internal/ranking ./internal/model ./internal/search ./internal/attack \
		./internal/serve ./internal/evalstore ./internal/synth ./internal/dataset \
		| $(GO) run ./cmd/benchjson -compare dev/bench/data.js -compare-skip '^BenchmarkFanout'

# dfsd builds the selection-service daemon (see README "Serving").
dfsd:
	$(GO) build -o dfsd ./cmd/dfsd

# dfsload builds the load-test harness for dfsd.
dfsload:
	$(GO) build -o dfsload ./cmd/dfsload

ci: fmt vet build dfsperf race
