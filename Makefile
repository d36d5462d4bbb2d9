# Single entry points shared by local development and CI, so the two
# can never drift: .github/workflows/ci.yml calls these same targets.

GO ?= go

.PHONY: build test race fmt-check lint lint-budget bench bench-compare bench-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = the standard toolchain vet plus the repo's own invariant
# suite (docs/LINTING.md): determinism of the simulator and artifact
# rendering (including the whole-program dettaint/cachekey analyzers),
# cancellation flow, and the harness error taxonomy.
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/mcdlint ./...

# fmt-check fails when gofmt would rewrite any Go file in the tree
# (lint fixtures and the mcdbench module included) and names them.
fmt-check:
	@unformatted=$$($$($(GO) env GOROOT)/bin/gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# lint-budget is what CI runs: the same checks, timed, with a 60s
# ceiling on the mcdlint pass. The interprocedural analyzers build a
# whole-program call graph; this gate keeps that from quietly growing
# into a multi-minute CI tax. The timing is echoed so the job log
# tracks the trend.
lint-budget: fmt-check
	$(GO) vet ./...
	$(GO) build -o /tmp/mcdlint-ci ./cmd/mcdlint
	@start=$$(date +%s); \
	/tmp/mcdlint-ci ./... || exit $$?; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "mcdlint wall time: $${elapsed}s (budget 60s)"; \
	if [ $$elapsed -ge 60 ]; then \
		echo "mcdlint exceeded its 60s wall-time budget" >&2; exit 1; \
	fi

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkRunMatrix|BenchmarkChunkedReplay|BenchmarkChip' -benchtime 1x -benchmem .

# bench-compare re-runs the tracked benchmarks and gates against the
# committed baseline; CI runs it as a blocking job. Two gates, each
# calibrated to how its statistic behaves on shared hardware:
#
#   * wall clock at ±40% — benchmarks reporting a throughput metric
#     (sim-insts/s for the simulator core, cells/s for the matrix
#     harness) are judged on that figure, the rest on ns/op, best-of-5
#     (-count=5, benchjson keeps the fastest repeat). Coarse on
#     purpose: back-to-back
#     best-of-N invocations drift ±20-30% with runner load, so a
#     tighter wall gate flaps red on quiet commits. 40% still trips on
#     catastrophic slowdowns (reintroducing per-cycle polling, an
#     accidental O(domains) scan per edge).
#   * allocs/op at ±10% — allocation counts are deterministic between
#     runs, so this gate is tight; it is the one that catches
#     per-iteration garbage creeping back into the hot path.
#
# After a deliberate performance change, refresh the baseline with
# `make bench-baseline`.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkRunMatrix|BenchmarkChunkedReplay|BenchmarkChip' -benchtime 1x -count=5 -benchmem . \
		| $(GO) run ./cmd/benchjson -out bench_new.json
	$(GO) run ./cmd/benchjson -compare -tolerance 40 -alloc-tolerance 10 BENCH_baseline.json bench_new.json

# bench-baseline rewrites BENCH_baseline.json from a fresh best-of-5
# run; commit the result alongside the change that moved the numbers.
bench-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkRunMatrix|BenchmarkChunkedReplay|BenchmarkChip' -benchtime 1x -count=5 -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_baseline.json
