# Developer / CI entry points. `make check` is the CI gate: it checks
# formatting, vets the tree, and runs every test under the race detector,
# covering the parallel experiment runner and the concurrency-sensitive
# stats/taskq paths.

GO ?= go

.PHONY: build test race vet fmt-check bench check check-invariants results \
	bench-smoke bench-guard bench-baseline bench-benchstat bench-compare \
	trace-smoke bench-json benchjson-smoke serve-smoke postmortem-smoke \
	fleet-smoke triage-smoke perfbench-vet profile-fig10

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean (prints the offending files).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Race-detector pass; the heavy full-scale determinism test auto-skips
# under -race (its quick variant still runs).
race:
	$(GO) test -race ./...

check: fmt-check vet perfbench-vet race check-invariants bench-smoke bench-guard benchjson-smoke serve-smoke trace-smoke postmortem-smoke fleet-smoke triage-smoke

# perfbench is its own module (repro/perfbench, replacing repro with the
# tree), so `go build ./...` and `go vet ./...` never compile it. Vetting it
# here, offline, catches an internal API change that breaks the benchmark
# before the benchmark runs.
perfbench-vet:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet .

# Correctness harness: race-test the checker package itself, then run a
# 32-cell smoke slice of the seed-sweep property harness (a prefix of the
# 256-cell sweep, so any failure reproduces with `simcheck -cells <i+1>`),
# then Fig15 at scale 4 under the checker: its co-running multi-JVM cells
# (§5.7) are the evaluation's only ones, and the run exits 1 on a
# violation.
check-invariants:
	$(GO) vet ./internal/check/ ./cmd/simcheck/
	$(GO) test -race ./internal/check/
	$(GO) run ./cmd/simcheck -cells 32
	$(GO) run ./cmd/experiments -run fig15 -scale 4 -check > /dev/null

bench:
	$(GO) test -bench=. -benchmem

# One iteration of each simkit kernel micro-benchmark under the race
# detector: a fast smoke test that the schedule/cancel/coroutine hot paths
# still run clean, without waiting for a full benchmark pass.
bench-smoke:
	$(GO) test -race -run XXX -benchtime=1x -benchmem \
		-bench 'BenchmarkSimkitSchedule$$|BenchmarkSimkitCancel$$|BenchmarkCoroSwitch$$' \
		./internal/simkit/

# Zero-allocation guard: the kernel, heap, postmortem, steal-loop and
# whole-scavenge micro-benchmarks must report 0 allocs/op. 1000 iterations
# amortize one-time setup; any steady-state allocation on these hot paths
# fails the build before it can show up as a Fig10 regression.
bench-guard:
	@out=$$(mktemp); \
	{ $(GO) test -run XXX -benchtime=1000x -benchmem \
		-bench 'BenchmarkSimkitSchedule$$|BenchmarkSimkitCancel$$|BenchmarkCoroSwitch$$' \
		./internal/simkit/ && \
	  $(GO) test -run XXX -benchtime=1000x -benchmem \
		-bench 'BenchmarkHeapAlloc$$|BenchmarkMinorGCTrace$$' \
		./internal/heap/ && \
	  $(GO) test -run XXX -benchtime=1000x -benchmem \
		-bench 'BenchmarkPostmortemAttribution$$|BenchmarkPostmortemDisabled$$' \
		./internal/postmortem/ && \
	  $(GO) test -run XXX -benchtime=1000x -benchmem \
		-bench 'BenchmarkStealLoop$$' \
		./internal/taskq/ && \
	  $(GO) test -run XXX -benchtime=1000x -benchmem \
		-bench 'BenchmarkMinorGC$$' \
		./internal/pscavenge/ ; } > $$out || { cat $$out; rm -f $$out; exit 1; }; \
	cat $$out; \
	awk '$$NF == "allocs/op" && $$(NF-1)+0 > 0 \
		{bad=1; print "ALLOC REGRESSION:", $$0} END {exit bad}' $$out; \
	rc=$$?; rm -f $$out; exit $$rc

# Machine-readable benchmark snapshot: run the tier-1 benchmark subset
# (simkit kernel micros at full benchtime, the Fig10 / vanilla /
# optimized macros at one iteration each, 64 checked sweep cells and 256
# cold gcsimd scenarios from two clients) and convert the output to
# BENCH_<yyyymmdd>.json via cmd/benchjson. Commit the file to extend the
# perf trajectory; the format is documented in EXPERIMENTS.md. An existing
# same-day snapshot is never clobbered — rerun with
# `make bench-json BENCHJSON_FLAGS=-force` to replace it deliberately.
BENCH_JSON_OUT ?= BENCH_$(shell date +%Y%m%d).json
BENCHJSON_FLAGS ?=
bench-json:
	{ $(GO) test -run XXX -benchmem \
		-bench 'BenchmarkSimkitSchedule$$|BenchmarkSimkitScheduleDeep$$|BenchmarkSimkitCancel$$|BenchmarkCoroSwitch$$' \
		./internal/simkit/ ; \
	  $(GO) test -run XXX -benchmem \
		-bench 'BenchmarkHeapAlloc$$|BenchmarkMinorGCTrace$$' \
		./internal/heap/ ; \
	  $(GO) test -run XXX -benchmem \
		-bench 'BenchmarkStealLoop$$' \
		./internal/taskq/ ; \
	  $(GO) test -run XXX -benchmem \
		-bench 'BenchmarkMinorGC$$' \
		./internal/pscavenge/ ; \
	  $(GO) test -run XXX -benchtime 1x -benchmem \
		-bench 'BenchmarkFig10$$|BenchmarkVanillaJVM$$|BenchmarkOptimizedJVM$$' . ; \
	  $(GO) test -run XXX -benchtime 1x -benchmem \
		-bench 'BenchmarkFleetSweep$$' ./internal/fleet/ ; \
	  $(GO) test -run XXX -benchtime 64x -benchmem \
		-bench 'BenchmarkCheckedCell$$' ./internal/check/ ; \
	  $(GO) test -run XXX -benchtime 256x -benchmem \
		-bench 'BenchmarkServiceCold$$' ./internal/service/ ; } \
	| $(GO) run ./cmd/benchjson $(BENCHJSON_FLAGS) -o $(BENCH_JSON_OUT)
	@echo "wrote $(BENCH_JSON_OUT)"

# Compare two bench-json snapshots: per-benchmark ns/op, B/op and
# allocs/op deltas, non-zero exit when any ns/op regression exceeds
# BENCH_REGRESS percent. Defaults to the two most recent committed
# snapshots; override with `make bench-compare BENCH_OLD=... BENCH_NEW=...`.
BENCH_REGRESS ?= 10
BENCH_OLD ?= $(shell ls BENCH_*.json 2>/dev/null | sort | tail -2 | head -1)
BENCH_NEW ?= $(shell ls BENCH_*.json 2>/dev/null | sort | tail -1)
bench-compare:
	@if [ -z "$(BENCH_OLD)" ] || [ "$(BENCH_OLD)" = "$(BENCH_NEW)" ]; then \
		echo "bench-compare: need two BENCH_*.json snapshots (have: $(BENCH_NEW))"; \
		exit 2; fi
	$(GO) run ./cmd/benchjson compare -regress $(BENCH_REGRESS) $(BENCH_OLD) $(BENCH_NEW)

# Fast CI gate for the benchmark tooling: the parser's unit tests, then a
# one-iteration coro-switch micro piped through the real tool.
benchjson-smoke:
	$(GO) test ./cmd/benchjson/
	$(GO) test -run XXX -benchtime=1x -benchmem -bench 'BenchmarkCoroSwitch$$' \
		./internal/simkit/ | $(GO) run ./cmd/benchjson > /dev/null

# Profile the Fig10 macro benchmark: run it a few iterations with CPU and
# heap profiling into profiles/ (gitignored) and print the top-10 flat
# entries of each, so a perf investigation starts from data rather than
# guesswork. Open interactively with:
#   go tool pprof profiles/fig10.test profiles/fig10.cpu.pprof
PROFILE_DIR ?= profiles
PROFILE_BENCHTIME ?= 3x
profile-fig10:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run XXX -benchtime $(PROFILE_BENCHTIME) -benchmem \
		-bench 'BenchmarkFig10$$' \
		-cpuprofile $(PROFILE_DIR)/fig10.cpu.pprof \
		-memprofile $(PROFILE_DIR)/fig10.mem.pprof \
		-o $(PROFILE_DIR)/fig10.test .
	@echo "--- top 10 by CPU ---"
	$(GO) tool pprof -top -nodecount=10 \
		$(PROFILE_DIR)/fig10.test $(PROFILE_DIR)/fig10.cpu.pprof
	@echo "--- top 10 by allocated space ---"
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		$(PROFILE_DIR)/fig10.test $(PROFILE_DIR)/fig10.mem.pprof

# benchstat workflow: record kernel + macro benchmarks before a change,
# then compare after. benchstat is optional; without it, diff the files.
# (For comparing committed bench-json snapshots, see bench-compare above.)
#   make bench-baseline        # writes bench-baseline.txt
#   ... hack ...
#   make bench-benchstat       # writes bench-new.txt, runs benchstat
BENCH_PKGS = ./internal/simkit/ .
BENCH_COUNT ?= 5

bench-baseline:
	$(GO) test -run XXX -bench . -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| tee bench-baseline.txt

bench-benchstat:
	$(GO) test -run XXX -bench . -benchmem -count $(BENCH_COUNT) $(BENCH_PKGS) \
		| tee bench-new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-baseline.txt bench-new.txt; \
	else \
		echo "benchstat not installed; compare bench-baseline.txt and bench-new.txt manually"; \
	fi

# gcsimd cache-contract smoke test, race-enabled: boots an in-process
# server, POSTs the same scenario twice (must be miss then hit with
# byte-identical bodies and matching /metrics counters), replays a sweep
# from cache, and load-generates both paths — the cached path must beat
# the cold path by >= 10x RPS. Then the pull-worker contract, three times
# under the race detector: cold runs overlap on /run and /sweep, Close
# drains every admitted job, and both workers survive a panicking
# simulation.
serve-smoke:
	$(GO) run -race ./cmd/gcsimd -selftest -n 100
	$(GO) test -race -count=3 -run 'Overlap|Close|Panic' ./internal/service/

# Observability smoke test: a small traced gcsim run must export a
# Perfetto file containing events from all five instrumented layers
# (tracecheck exits non-zero otherwise) and write its metrics as text and
# as -gcjson, and the full scale-4 evaluation with tracing enabled must
# still match the committed golden fixture. Then the scheduling timeline,
# a bus subscriber: one gcsim -timeline run; a -timeline -check run that
# must go on past the timeline to print the checker's verdict (and exit 0
# only on a clean check); and the committed timeline fixtures must render
# byte-identically.
TRACE_SMOKE_OUT ?= /tmp/gcsim-trace-smoke.json
TRACE_SMOKE_GCJSON ?= /tmp/gcsim-trace-smoke-run.json
trace-smoke:
	$(GO) run ./cmd/gcsim -bench lusearch -mutators 8 -gcthreads 4 \
		-evtrace $(TRACE_SMOKE_OUT) -lockprofile -metrics -gcjson $(TRACE_SMOKE_GCJSON)
	$(GO) run ./cmd/tracecheck $(TRACE_SMOKE_OUT)
	$(GO) test -run 'TestGoldenScale4TracingEnabled' ./internal/experiments/
	$(GO) run ./cmd/gcsim -bench lusearch -timeline
	@out=$$($(GO) run ./cmd/gcsim -bench lusearch -mutators 8 -gcthreads 4 -timeline -check) || \
		{ echo "$$out"; echo "trace-smoke: gcsim -timeline -check failed"; exit 1; }; \
		echo "$$out" | grep '^check:' || \
		{ echo "trace-smoke: gcsim -timeline -check printed no check: verdict"; exit 1; }
	$(GO) test -run 'TestTimelineFixtures' ./internal/schedtrace/

# Pause-postmortem smoke test: run a reduced checked cell with blame
# attribution, write the postmortem JSON, verify its internal invariant
# (buckets sum to each pause's wall time) and parseability with gcreport,
# and run the attribution unit suite plus the scale-4 golden check — the
# proof that attaching the analyzer never changes simulation output.
# The second cell is plan-heavy: 16 GC threads, so nearly every worker
# transition inside the pause runs through the plan-driven state machine
# (contended lock entries, queue-empty waits, termination offers) rather
# than coroutine resumes — the attribution must still account for every
# nanosecond of each pause.
POSTMORTEM_SMOKE_OUT ?= /tmp/gcsim-postmortem-smoke.json
POSTMORTEM_SMOKE_OUT2 ?= /tmp/gcsim-postmortem-smoke-plan.json
postmortem-smoke:
	$(GO) run ./cmd/gcsim -bench lusearch -mutators 8 -gcthreads 4 \
		-check -postmortem -postmortem-json $(POSTMORTEM_SMOKE_OUT)
	$(GO) run ./cmd/gcreport -verify $(POSTMORTEM_SMOKE_OUT)
	$(GO) run ./cmd/gcsim -bench lusearch -mutators 16 -gcthreads 16 \
		-check -postmortem -postmortem-json $(POSTMORTEM_SMOKE_OUT2)
	$(GO) run ./cmd/gcreport -verify $(POSTMORTEM_SMOKE_OUT2)
	$(GO) test ./internal/postmortem/
	$(GO) test -run 'TestGoldenScale4PostmortemEnabled' ./internal/experiments/

# Fleet determinism smoke test, race-enabled: a 1k-cell multi-process
# sweep with a mid-shard worker kill injected must produce a clean report
# (exit 0 requires zero failed cells, violations, and drops) that is
# byte-identical to an unperturbed single-worker run of the same cell
# space — the gcsim-sweep/v1 determinism oracle as a CI gate. The fleet
# unit suite (protocol fuzz corpus, recovery matrix) runs under -race via
# `make race`; this target exercises the real sweepd binary end to end.
FLEET_SMOKE_DIR ?= /tmp/gcsim-fleet-smoke
fleet-smoke:
	rm -rf $(FLEET_SMOKE_DIR) && mkdir -p $(FLEET_SMOKE_DIR)
	$(GO) build -race -o $(FLEET_SMOKE_DIR)/sweepd ./cmd/sweepd
	$(FLEET_SMOKE_DIR)/sweepd -cells 1000 -workers 1 -shards 1 -no-steal \
		-items 150 -skip-bare -quiet -out $(FLEET_SMOKE_DIR)/baseline.json
	$(FLEET_SMOKE_DIR)/sweepd -cells 1000 -workers 2 -kill-worker-after 5 \
		-items 150 -skip-bare -out $(FLEET_SMOKE_DIR)/killed.json
	cmp $(FLEET_SMOKE_DIR)/baseline.json $(FLEET_SMOKE_DIR)/killed.json
	@rm -rf $(FLEET_SMOKE_DIR); echo "fleet-smoke: reports byte-identical under injected worker kill"

# Failure-triage smoke test: a sweep with an injected failure must exit 1
# and write the failing cell's window, replayed on retained rings, as
# Perfetto JSON holding events of every layer (tracecheck fails on a
# window of track metadata alone).
TRIAGE_SMOKE_DIR ?= /tmp/simcheck-triage-smoke
triage-smoke:
	rm -rf $(TRIAGE_SMOKE_DIR) && mkdir -p $(TRIAGE_SMOKE_DIR)
	@$(GO) build -o $(TRIAGE_SMOKE_DIR)/simcheck ./cmd/simcheck
	@$(TRIAGE_SMOKE_DIR)/simcheck -cells 2 -inject-fail -out $(TRIAGE_SMOKE_DIR); rc=$$?; \
		if [ $$rc -ne 1 ]; then echo "triage-smoke: simcheck -inject-fail exited $$rc, want 1"; exit 1; fi
	$(GO) run ./cmd/tracecheck $(TRIAGE_SMOKE_DIR)/violation-cell-000.json
	@rm -rf $(TRIAGE_SMOKE_DIR); echo "triage-smoke: the injected failure's window holds trace events"

# Regenerate the committed full evaluation output (seed 42, all cores);
# EXPERIMENTS.md explains how to read it.
results:
	$(GO) run ./cmd/experiments -run all -scale 1 \
		-o internal/experiments/testdata/results_full.txt
