GO ?= go

# Packages with concurrent control-plane loops or a live observability
# surface (Stats/scrapes racing the data plane) get an extra -race pass.
RACE_PKGS := ./internal/controller/... ./internal/cluster/... ./internal/faults/... \
	./internal/metrics/... ./internal/xgwh/... ./internal/xgw86/... ./cmd/sailfish-gw/... \
	./internal/trace/... ./internal/heavyhitter/... ./internal/telemetry/... \
	./internal/placement/... ./internal/snat/... ./internal/shardplane/... \
	./internal/xgwdpu/... ./internal/slo/... ./internal/sim/...

.PHONY: check fmt-check vet lint-metrics build test race chaos bench bench-all bench-smoke bench-smoke-mc fuzz-smoke fmt

## check: the full gate — formatting, vet, the metrics-name lint, build,
## tests, and the race pass.
check: fmt-check vet lint-metrics build test race

## fmt-check: every Go file is gofmt-clean (gofmt -l prints nothing).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint-metrics: every registered metric name matches ^sailfish_[a-z0-9_]+$
## and no two packages register the same family (allowlisted shares aside) —
## a collision would silently merge two subsystems' series on a scrape.
lint-metrics:
	$(GO) run ./cmd/metrics-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the concurrency gate. GOMAXPROCS=4 forces real interleaving for
## the sharded data plane (shardplane workers, gw workers mode, driver)
## even on single-core CI runners, where the default would serialize
## goroutines and hide races.
race:
	GOMAXPROCS=4 $(GO) test -race $(RACE_PKGS)

## chaos: run the seeded disaster-recovery scenario end to end.
chaos:
	$(GO) run ./cmd/sailfish-gw -chaos

## bench: run the fast-path benchmarks and refresh BENCH_fastpath.json.
## For regressions, prefer benchstat over eyeballing single runs:
##   go test -run '^$$' -bench BenchmarkRegionForward -benchmem -count 10 . > old.txt
##   ... change ...
##   go test -run '^$$' -bench BenchmarkRegionForward -benchmem -count 10 . > new.txt
##   benchstat old.txt new.txt
bench:
	$(GO) test -run '^$$' -bench 'RegionForward|DriverParallel' -benchmem . ./internal/cluster/
	$(GO) run ./cmd/fastpath-bench -o BENCH_fastpath.json

## bench-all: the full suite — every figure/table regeneration plus the fast path.
bench-all:
	$(GO) test -bench=. -benchmem ./...

## bench-smoke: one iteration of every benchmark — a CI-cheap compile-and-run
## check that the benchmarks themselves have not rotted. Not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/fastpath-bench -snat-max 1000000 -lpm-max 200000 -o /tmp/bench-smoke.json

## bench-smoke-mc: the multi-core variant — the same smoke pass pinned to
## GOMAXPROCS=4 so the sharded shardplane rows actually run their workers
## in parallel (and the 0 allocs/op gate holds under real concurrency).
bench-smoke-mc:
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench ShardPlane -benchtime 1x ./internal/shardplane/
	GOMAXPROCS=4 $(GO) run ./cmd/fastpath-bench -snat-max 1000000 -lpm-max 200000 -o /tmp/bench-smoke-mc.json

## fuzz-smoke: about 10 s of coverage-guided fuzzing per target: the route
## trie against its linear-scan oracle, both packet parsers, and the front
## parse against the full one (the dispatchers shard by the former while the
## lanes run the latter).
## Minimization is capped so that inputs with new coverage do not eat the
## time; a failing input is still written under testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/tables/ -run '^$$' -fuzz '^FuzzTrieOps$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz '^FuzzParsePlain$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz '^FuzzParseFrontMatchesParse$$' -fuzztime 10s -fuzzminimizetime 100x

fmt:
	gofmt -l -w .
