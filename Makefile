# Local verification targets mirroring .github/workflows/ci.yml, so
# "make ci" reproduces exactly what CI enforces.

GO ?= go

.PHONY: all build test race fmt vet staticcheck lint-custom lint ci-matrix bench-test bench-smoke bench-json bench-compare bench-gate figures examples-smoke scenario-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The determinism matrix: the golden, differential, sharding
# conservation, and snapshot/restore tests under both engines. The
# event-driven engine and the ticked reference must produce
# byte-identical results — and a restored snapshot must be
# indistinguishable from replay under each; this is the gate that lets
# the event loop change without a correctness argument from scratch.
# DRSTRANGE_ENGINE only defaults configs that name no engine: tests that
# pin cfg.Engine (the differential pairs) run both engines in either
# cell, and the cell flips everything else.
ci-matrix:
	@for e in event ticked; do \
		echo "==== engine=$$e ===="; \
		DRSTRANGE_ENGINE=$$e DRSTRANGE_INSTR=8000 \
			$(GO) test -run 'Golden|Differential|ByteIdentical|Shard|Conservation|Snapshot' ./... || exit 1; \
	done

# The benchmark's own tests (bench/ is a nested module, so ./... above
# never reaches it): drbench's workload, replay, golden-digest, and
# layer-coverage checks — the last fails on any internal/sim file the
# per-layer profile fold does not map.
bench-test:
	cd bench && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck at the version CI pins. The development container is
# offline (no module proxy), so locally this runs only when a
# staticcheck binary is already installed; CI always runs the pinned
# version via `go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`.
STATICCHECK_VERSION = 2025.1.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping locally (CI enforces the pinned $(STATICCHECK_VERSION))"; \
	fi

# drstrangelint: the repo's own analyzer suite (internal/lint) — the
# determinism, hook no-reentry, noalloc hot-path, and envknob
# central-parsing contracts. Zero tolerance: any diagnostic fails.
lint-custom:
	$(GO) run ./cmd/drstrangelint ./...

# The full static gate: formatting, go vet, staticcheck (when
# available; see above), and the repo's own contract analyzers.
lint: fmt vet staticcheck lint-custom

# One iteration of the Figure 1 driver at a small budget: end-to-end
# smoke of the sweep machinery.
bench-smoke:
	DRSTRANGE_INSTR=5000 $(GO) test -run '^$$' -bench BenchmarkFigure1 -benchtime 1x .

# Machine-readable perf trajectory: run every benchmark once — the
# figure drivers plus the open-loop ServeLoad serving sweeps — and emit
# BENCH_<utc timestamp>.json with ns/op, each benchmark's headline
# metric (figure headline or serving p99 latency), allocs/op, and the
# serve_memory headline (B/op + allocs/op of the saturated serve point,
# the streaming pipeline's worst case). Honors DRSTRANGE_INSTR /
# DRSTRANGE_WORKERS / DRSTRANGE_ENGINE; CI uploads the file as an
# artifact so speedups and regressions are diffable across PRs.
# (The bench output goes through a temp file, not a pipe, so a failing
# benchmark fails the target instead of leaving a partial snapshot.)
bench-json:
	@out=$$(mktemp); \
	if ! $(GO) test -run '^$$' -bench . -benchtime 1x . > $$out 2>&1; then \
		cat $$out; rm -f $$out; exit 1; \
	fi; \
	$(GO) run ./cmd/benchjson < $$out; status=$$?; rm -f $$out; exit $$status

# Diff two bench JSON snapshots benchmark by benchmark (ns/op, B/op,
# allocs/op, headline; ratio = new/old). BENCH_baseline.json is the
# committed reference:
#   make bench-compare OLD=BENCH_baseline.json NEW=BENCH_<ts>.json
OLD ?= BENCH_baseline.json
bench-compare:
	@test -n "$(NEW)" || { echo "usage: make bench-compare [OLD=old.json] NEW=new.json"; exit 2; }
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# The regression gate CI's bench-compare job enforces: diff against the
# committed baseline, write the machine-readable delta artifact, and
# fail only when a gated headline — the saturated serve point's memory,
# a serving sweep's p99 latency, the degraded sweep's downtime, the
# warm-start sweep's walltime ratio, the clean-path health-monitoring
# overhead, the closed-loop overload sweep's keygen p99, or the
# class/admission machinery's open-loop overhead (the sweep_walltime /
# health_overhead / shed_overhead pseudo-rows) — regresses by more
# than 25%.
# Everything else in the diff is informational (micro-benchmark noise
# on shared runners must not block merges).
DELTA ?= BENCH_delta.json
BENCH_GATES = ServeLoadSaturated:B/op,ServeLoadSaturated:allocs/op,ServeLoadSaturated:headline,ServeLoad:headline,ServeLoadSharded:headline,ServeLoadDegraded:headline,ServeLoadClosedLoop:headline,sweep_walltime:ratio,health_overhead:ratio,shed_overhead:ratio
bench-gate:
	@test -n "$(NEW)" || { echo "usage: make bench-gate [OLD=old.json] NEW=new.json [DELTA=delta.json]"; exit 2; }
	$(GO) run ./cmd/benchjson -compare -delta $(DELTA) -maxratio 1.25 -gate $(BENCH_GATES) $(OLD) $(NEW)

# Regenerate every figure at the default budget (slow; honors
# DRSTRANGE_INSTR and DRSTRANGE_WORKERS).
figures:
	$(GO) run ./cmd/figures -fig all

# Build and run every example plus a small cmd/rngbench sweep: the
# end-to-end smoke of the application interface, the interactive
# system, and the open-loop serving layer.
examples-smoke:
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/quickstart
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/fairness
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/idleness
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/keygen
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/openloop
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/scenario
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/sharded
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/degraded
	DRSTRANGE_INSTR=3000 $(GO) run ./examples/closedloop
	$(GO) run ./cmd/rngbench -loads 320,1280 -warmup 5000 -window 20000
	$(GO) run ./cmd/rngbench -loads 1280,5120 -warmup 5000 -window 20000 -shards 1,4 -router jsq
	$(GO) run ./cmd/rngbench -loads 1280 -warmup 5000 -window 20000 -shards 4 -router jsq -fault bias-ramp
	$(GO) run ./cmd/rngbench -loads 320,1280 -warmup 5000 -window 20000 -warm on
	$(GO) run ./cmd/rngbench -loads 1280 -warmup 5000 -window 20000 -checkpoint 4000
	$(GO) run ./cmd/rngbench -loads 1280,5120 -warmup 5000 -window 20000 -think 500 -classes keygen,bulk -admission threshold-by-depth

# The canned scenarios/ files for all three kinds run through both
# CLIs (any CLI runs any kind via -scenario), and the figure scenario's
# output is diffed against the flag-driven cmd/figures equivalent —
# the byte-identity gate of the public API's figure path. diff -B
# tolerates only the blank line left where the figures timing line was
# filtered out. The same scenario rerun with -engine ticked -workers 3
# must match its default run byte for byte (the per-run flag path).
scenario-smoke:
	$(GO) run ./cmd/drstrange -scenario scenarios/run-soplex.json
	$(GO) run ./cmd/rngbench -scenario scenarios/serve-sweep.json
	$(GO) run ./cmd/rngbench -scenario scenarios/run-soplex.json > /dev/null
	$(GO) run ./cmd/drstrange -scenario scenarios/serve-sweep.json > /dev/null
	$(GO) run ./cmd/rngbench -scenario scenarios/fig10.json > /dev/null
	$(GO) run ./cmd/drstrange -scenario scenarios/run-soplex.json -json > /dev/null
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/drstrange -scenario scenarios/fig10.json > $$tmp/scenario.txt; \
	$(GO) run ./cmd/figures -fig fig10 -instr 1200 | grep -v '^-- ' > $$tmp/flags.txt; \
	if ! diff -B -u $$tmp/flags.txt $$tmp/scenario.txt; then \
		echo "scenario-driven figure output differs from the flag-driven equivalent"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: figure output byte-identical across paths"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/drstrange -scenario scenarios/fig10.json > $$tmp/default.txt; \
	$(GO) run ./cmd/drstrange -scenario scenarios/fig10.json -engine ticked -workers 3 > $$tmp/flags.txt; \
	if ! diff -u $$tmp/default.txt $$tmp/flags.txt; then \
		echo "-engine/-workers changed the figure scenario's output"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: per-run -engine/-workers output byte-identical to the default run"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/drstrange -scenario scenarios/serve_sharded.json > $$tmp/drstrange.txt; \
	$(GO) run ./cmd/rngbench -scenario scenarios/serve_sharded.json > $$tmp/rngbench.txt; \
	if ! diff -u $$tmp/drstrange.txt $$tmp/rngbench.txt; then \
		echo "sharded serve scenario output differs between the two CLIs"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: sharded serve output byte-identical across CLIs"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/drstrange -scenario scenarios/serve_degraded.json > $$tmp/drstrange.txt; \
	$(GO) run ./cmd/rngbench -scenario scenarios/serve_degraded.json > $$tmp/rngbench.txt; \
	if ! diff -u $$tmp/drstrange.txt $$tmp/rngbench.txt; then \
		echo "degraded serve scenario output differs between the two CLIs"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	if ! diff -u testdata/serve_degraded_golden.txt $$tmp/drstrange.txt; then \
		echo "degraded serve scenario output drifted from the committed golden"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: degraded serve output matches the committed trip/availability golden"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/drstrange -scenario scenarios/serve_closedloop.json > $$tmp/drstrange.txt; \
	$(GO) run ./cmd/rngbench -scenario scenarios/serve_closedloop.json > $$tmp/rngbench.txt; \
	if ! diff -u $$tmp/drstrange.txt $$tmp/rngbench.txt; then \
		echo "closed-loop serve scenario output differs between the two CLIs"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	if ! diff -u testdata/serve_closedloop_golden.txt $$tmp/drstrange.txt; then \
		echo "closed-loop serve scenario output drifted from the committed golden"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: closed-loop serve output matches the committed overload golden"

ci: fmt vet lint-custom build test race ci-matrix bench-test bench-smoke examples-smoke scenario-smoke
