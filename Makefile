# Local verification targets mirroring .github/workflows/ci.yml: "make
# ci" runs every CI job. Performance is measured by the benchmark in
# bench/ (bash bench/run.sh; workloads and bounds in BENCHMARK.json),
# not by these targets.

GO ?= go

.PHONY: all build test race fmt vet staticcheck lint-custom lint bench-test bench-smoke fuzz profile figures examples-smoke scenario-smoke identity ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# After the all-packages pass, the op tape's own tests repeat: the tape
# is shared by every simulation goroutine that replays its stream.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run Tape ./internal/workload ./internal/sim

# The benchmark's own tests (bench/ is a nested module, so ./... above
# never reaches it): drbench's workload, replay, golden-digest, and
# layer-coverage checks — the last fails on any internal/sim file the
# per-layer profile fold does not map.
bench-test:
	cd bench && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

# bench/ is a nested module, so ./... stops at its boundary: vet it too.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

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

# One iteration of every benchmark in every package at the default
# budget: each figure driver and serving sweep in bench_test.go runs end
# to end, each per-layer micro-benchmark (controller tick, health
# monitor, PRNG) runs once, and each benchmark's invariants (a clean
# stream never trips, the overload sweep sheds, ...) fail the target
# when broken.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Sixty seconds of native fuzzing of the scenario parser, validator and
# normalizer (FuzzScenario in scenario_test.go), seeded from every
# committed scenario file. Minimizing one grown input is quadratic in
# its length: at the default 60 s limit, a run from a cold cache can
# stall both workers for half its budget; 5 s keeps them fuzzing.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime 60s -fuzzminimizetime 5s .

# Function-level CPU profile of one workload of the benchmark: the view
# drbench's per-layer fold lacks. It reads the workload's scenarios from
# bench/ and writes the profiles under $TMPDIR (default /tmp). A serve
# workload (serve-open, serve-sharded, serve-overload) runs its one
# scenario through rngbench at seed 3; paper-figures runs each of its
# figure scenarios through cmd/drstrange in a process of its own, and
# pprof merges the three profiles into one table:
#   make profile W=serve-overload
#   make profile W=paper-figures
profile:
	@test -n "$(W)" -a -d "bench/workloads/$(W)" || \
		{ echo "usage: make profile W=<serve-open|serve-sharded|serve-overload|paper-figures>"; exit 2; }
	@dir="$${TMPDIR:-/tmp}"; \
	if [ -f "bench/workloads/$(W)/$(W).json" ]; then \
		out="$$dir/drstrange-$(W).pprof"; \
		$(GO) run ./cmd/rngbench -scenario bench/workloads/$(W)/$(W).json -seed 3 -cpuprofile "$$out" > /dev/null && \
		$(GO) tool pprof -top -nodecount=25 "$$out"; \
	else \
		outs=; \
		for f in bench/workloads/$(W)/*.json; do \
			out="$$dir/drstrange-$(W)-$$(basename "$$f" .json).pprof"; \
			$(GO) run ./cmd/drstrange -scenario "$$f" -cpuprofile "$$out" > /dev/null || exit 1; \
			outs="$$outs $$out"; \
		done; \
		$(GO) tool pprof -top -nodecount=25 $$outs; \
	fi

# Regenerate every figure at the default budget (slow; honors
# DRSTRANGE_ENGINE; pass a budget with go run ./cmd/figures -instr N).
figures:
	$(GO) run ./cmd/figures -fig all

# Build and run every example plus a small cmd/rngbench sweep: the
# end-to-end smoke of the application interface, the interactive
# system, and the open-loop serving layer.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fairness
	$(GO) run ./examples/idleness
	$(GO) run ./examples/keygen
	$(GO) run ./examples/openloop
	$(GO) run ./examples/scenario
	$(GO) run ./examples/sharded
	$(GO) run ./examples/degraded
	$(GO) run ./examples/closedloop
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
# filtered out. cmd/figures -csv must write Table1.csv with its header
# and first row. The figure scenario and the Section 6 adversarial one,
# rerun with -engine ticked -workers 3, must each match their default run
# byte for byte (the per-run flag path), and a flag given next to
# -scenario must override the file's field. A -shards sweep must write
# the -cpuprofile/-memprofile it is given, one pair spanning the sweep.
scenario-smoke:
	$(GO) run ./cmd/drstrange -scenario scenarios/run-soplex.json
	$(GO) run ./cmd/rngbench -scenario scenarios/serve-sweep.json
	$(GO) run ./cmd/rngbench -scenario scenarios/run-soplex.json > /dev/null
	$(GO) run ./cmd/drstrange -scenario scenarios/serve-sweep.json > /dev/null
	$(GO) run ./cmd/rngbench -scenario scenarios/fig10.json > /dev/null
	$(GO) run ./cmd/drstrange -scenario scenarios/run-soplex.json -json > /dev/null
	@$(GO) run ./cmd/drstrange -scenario scenarios/run-soplex.json -instr 300 -json | \
		grep -q '"instructions": 300,' || { echo "-instr did not override the scenario file"; exit 1; }
	@$(GO) run ./cmd/rngbench -scenario scenarios/serve-sweep.json -loads 320 -json | tr -d ' \n' | \
		grep -q '"loads_mbps":\[320\]' || { echo "-loads did not override the scenario file"; exit 1; }
	@echo "scenario-smoke OK: flags given next to -scenario override the file's fields"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/rngbench -designs drstrange -loads 320 -warmup 1000 -window 4000 -shards 1,2 \
		-cpuprofile $$tmp/cpu.pprof -memprofile $$tmp/mem.pprof > /dev/null || { rm -rf $$tmp; exit 1; }; \
	if [ ! -s $$tmp/cpu.pprof ] || [ ! -s $$tmp/mem.pprof ]; then \
		echo "a -shards sweep did not write its -cpuprofile/-memprofile"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: a -shards sweep writes both profiles"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/drstrange -scenario scenarios/fig10.json > $$tmp/scenario.txt; \
	$(GO) run ./cmd/figures -fig fig10 -instr 1200 | grep -v '^-- ' > $$tmp/flags.txt; \
	if ! diff -B -u $$tmp/flags.txt $$tmp/scenario.txt; then \
		echo "scenario-driven figure output differs from the flag-driven equivalent"; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: figure output byte-identical across paths"
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/figures -fig table1 -csv $$tmp > /dev/null; \
	if [ "$$(head -n 2 $$tmp/Table1.csv)" != "$$(printf 'series,value\nchannels,4')" ]; then \
		echo "figures -csv wrote an unexpected Table1.csv:"; head -n 2 $$tmp/Table1.csv; \
		rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; echo "scenario-smoke OK: figures -csv writes Table1.csv"
	@tmp=$$(mktemp -d); \
	for f in fig10 adversarial; do \
		$(GO) run ./cmd/drstrange -scenario scenarios/$$f.json > $$tmp/default.txt; \
		$(GO) run ./cmd/drstrange -scenario scenarios/$$f.json -engine ticked -workers 3 > $$tmp/flags.txt; \
		if ! diff -u $$tmp/default.txt $$tmp/flags.txt; then \
			echo "-engine/-workers changed the $$f scenario's output"; \
			rm -rf $$tmp; exit 1; \
		fi; \
	done; \
	rm -rf $$tmp; echo "scenario-smoke OK: per-run -engine/-workers output byte-identical to the default run (fig10, adversarial)"
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

# Byte identity of this tree with another checkout of the repository,
# usually the parent commit cloned into a scratch directory: every
# figure at -instr 3000 and 20000 under both engines, and the text
# output, -json output and exit status of drstrange and rngbench on
# every committed scenario file (scripts/identity.sh). Not part of ci,
# which has no second checkout.
#   make identity BASE=../parent
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<checkout to compare against>"; exit 2; }
	bash scripts/identity.sh "$(BASE)"

ci: lint build test race bench-test bench-smoke fuzz examples-smoke scenario-smoke
