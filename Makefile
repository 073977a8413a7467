GO ?= go

.PHONY: build test race vet staticcheck vuln fmt fuzz-seeds fuzz-wire crash-test chaos-soak cluster-soak run-predictd bench bench-baseline bench-guard cover cover-html ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt check: fails listing any file that is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run the fuzz targets' seed corpora as ordinary tests (no fuzzing engine;
# deterministic and fast, so it belongs in ci).
fuzz-seeds:
	$(GO) test -run Fuzz ./internal/rrd ./internal/preddb ./internal/durable ./internal/wire ./internal/tournament ./internal/core ./cmd/predictd

# Short real fuzzing of the binary ingest protocol: corrupt frames,
# truncation, and version skew must never panic or mis-ack. Go's fuzzer
# accepts one -fuzz target per invocation, so the targets run back to back.
# FUZZTIME bounds each target (CI uses the default; crank it locally).
FUZZTIME ?= 30s

fuzz-wire:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire

# Kill-and-restart durability tests: crash mid-run, warm restart, and
# require bit-identical results versus an uninterrupted run (monitord), or
# identical served forecasts across a drain/restart cycle and WAL replay
# after kill -9 (predictd).
crash-test:
	$(GO) test -v -run 'Crash|Corrupt|Fingerprint|Extends' ./cmd/monitord ./cmd/predictd

# End-to-end chaos soak: keyed ingest through the fault-injecting proxy at
# a WAL-mode predictd that is kill -9'd and restarted mid-stream; passes
# only if every acked sample is applied exactly once and forecasts kept
# serving. Race-enabled and deterministic (seeded fault schedule).
chaos-soak:
	$(GO) test -race -v -count=1 -run TestChaosSoak ./cmd/predictd

# Replicated-cluster chaos soak: three WAL-mode nodes behind per-node fault
# proxies, one kill -9'd mid-ingest and rejoined. Passes only if every acked
# sample applies exactly once across forward/replicate/handoff/replay,
# forecast reads never stop succeeding, and the rejoined node resumes via
# warm handoff. Race stays off: three child daemons plus the soak harness
# under the race runtime blow well past useful CI latency — `make race`
# already covers the cluster package's in-process tests.
cluster-soak:
	$(GO) test -v -count=1 -timeout 300s -run TestClusterSoak ./cmd/predictd

# Run the HTTP prediction service locally (ctrl-C drains and snapshots).
run-predictd:
	$(GO) run ./cmd/predictd -listen :8100 -state .predictd-state

# Race-enabled test run; includes the monitord chaos/supervision tests,
# which exercise the concurrent per-pipeline supervisor.
race:
	$(GO) test -race ./...

# Static analysis beyond vet, when the tools are installed. Neither tool is
# fetched: the build must work offline, so each is skipped (with a notice)
# if missing from PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

# Benchmark workflow for instrumentation / hot-path changes. Capture a
# baseline on the clean tree, then compare after the change:
#
#   make bench-baseline          # writes bench-old.txt
#   ...edit...
#   make bench                   # writes bench-new.txt
#   benchstat bench-old.txt bench-new.txt   # if installed; else eyeball
#
# BENCH selects the benchmarks (default: the hot forecast path, which the
# observability layer must not regress by more than ~5%).
BENCH ?= BenchmarkForecastPath
BENCHFLAGS ?= -run '^$$' -bench '$(BENCH)' -benchmem -count 6

BENCH_PKGS ?= . ./cmd/predictd ./internal/cluster ./internal/server ./internal/tournament ./internal/wire

bench-baseline:
	$(GO) test $(BENCHFLAGS) $(BENCH_PKGS) | tee bench-old.txt

bench:
	$(GO) test $(BENCHFLAGS) $(BENCH_PKGS) | tee bench-new.txt
	@if [ -f bench-old.txt ] && command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-old.txt bench-new.txt; \
	elif [ -f bench-old.txt ]; then \
		echo "benchstat not installed; compare bench-old.txt vs bench-new.txt by hand"; \
	fi

# Regression gate over bench-old.txt / bench-new.txt (see bench-baseline and
# bench above): cmd/benchguard fails the build when any benchmark's median
# time/op regresses more than 10% or its median allocs/op grows at all.
# benchstat, when installed, adds the statistician's view; the verdict is
# benchguard's. CI's bench-regression job drives this against the merge
# base with:
#
#   GUARD_BENCH='BenchmarkForecastPath|BenchmarkEngineThroughput/streams=10000$'
#   git checkout <base> && make bench-baseline BENCH="$GUARD_BENCH"
#   git checkout <head> && make bench          BENCH="$GUARD_BENCH"
#   make bench-guard
# benchstat's delta table prints first so a failing gate always comes with
# the readable comparison right above the verdict.
bench-guard:
	@test -f bench-old.txt || { echo "bench-old.txt missing: run 'make bench-baseline' on the baseline tree first"; exit 1; }
	@test -f bench-new.txt || { echo "bench-new.txt missing: run 'make bench' on the changed tree first"; exit 1; }
	@if command -v benchstat >/dev/null 2>&1; then benchstat bench-old.txt bench-new.txt; fi
	$(GO) run ./cmd/benchguard -max-time-delta 10 bench-old.txt bench-new.txt

# Statement-coverage gate: run the full test suite with cross-package
# coverage and fail below COVER_MIN% total. coverage.out feeds cover-html
# and the CI artifact upload.
COVER_MIN ?= 70

cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t + 0 < min + 0) { printf "coverage %.1f%% is below the %d%% gate\n", t, min; exit 1 } \
		printf "coverage %.1f%% (gate %d%%)\n", t, min }'

cover-html: cover
	$(GO) tool cover -html=coverage.out -o coverage.html

ci: fmt vet staticcheck vuln build fuzz-seeds race crash-test cover
