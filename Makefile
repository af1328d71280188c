# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-json lint-baseline test check chaos-smoke streams-smoke topo-smoke scenario-smoke fuzz-smoke fuzz-corpus race-smoke e2e-smoke cover determinism-smoke bench bench-smoke bench-floor bench-full experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism & safety static analysis (see DESIGN.md "Static analysis"):
# no wall clocks or global rand in the sim zone, no map-order leaks, no
# lock/pool/ack/goroutine lifecycle leaks, no silently dropped
# publish/store errors. Known debt lives in ci/lint.baseline (currently
# empty); new findings and stale baseline entries both fail. The second
# invocation is the self-check: the analyzer and its driver must be clean
# under their own rules.
lint:
	$(GO) run ./cmd/dlc-lint -baseline ci/lint.baseline ./...
	$(GO) run ./cmd/dlc-lint ./internal/lint ./cmd/dlc-lint

# Machine-readable lint report (findings, baseline suppressions, per-check
# timing); CI uploads lint-report.json as an artifact on every run.
lint-json:
	$(GO) run ./cmd/dlc-lint -json -baseline ci/lint.baseline ./... > lint-report.json

# Regenerate the known-findings ledger after deliberately paying debt.
lint-baseline:
	$(GO) run ./cmd/dlc-lint -write-baseline ci/lint.baseline ./...

test:
	$(GO) test ./...

# Static checks plus the full test suite under the race detector.
check:
	$(GO) vet ./...
	$(GO) run ./cmd/dlc-lint -baseline ci/lint.baseline ./...
	$(GO) test -race ./...

# Short seeded chaos soak under the race detector: the durable DSOS
# configuration (WAL + R=2) must survive randomized fault schedules with
# zero invariant violations, and the legacy configuration must demonstrably
# lose acked data (CI runs this too).
chaos-smoke:
	$(GO) test -race -run ChaosSoak ./internal/harness

# CI-sized durable-stream soak: seeded schedules of consumer crashes,
# stream reopens, link outages and lag past retention must audit clean
# (no acked message lost, no duplicate stored, cursors monotone, drops
# exactly accounted), and the legacy best-effort bus must demonstrably
# lose data under the same schedules (CI runs this too).
streams-smoke:
	$(GO) test -race -short -run 'StreamSoak' ./internal/harness

# CI-sized control-plane soak under the race detector: the managed
# topology (aggregation tree with failover + consistent-hash shards with
# live rebalancing) must survive seeded schedules of aggregator crashes,
# link partitions and mid-soak grow/shrink with zero invariant
# violations — no acked record lost, no (producer,seq) stored twice,
# every key exactly one post-cutover owner, ack floors never regress —
# and the static-placement baseline must demonstrably lose acked data
# under the same schedules (CI runs this too, as its own matrix leg).
topo-smoke:
	$(GO) test -race -short -count=1 -run 'RebalanceSoak' ./internal/harness
	$(GO) test -race -count=1 ./internal/topo

# Scenario-engine determinism gate: unit tests for the spec parser,
# arrival processes and planner, then the curated five-scenario campaign
# run twice with the same seed — the two reports must be byte-identical.
# The binary itself gates the pathology demonstration (the flash-crowd
# metadata storm must overflow the rate-limited uplink). CI runs this as
# its own matrix leg and uploads the report as an artifact.
SCENDIR ?= /tmp/dlc-scenario
scenario-smoke:
	$(GO) test -count=1 ./internal/scenario ./internal/replay
	$(GO) test -count=1 -run 'TestScenario|TestDetectScenario' ./internal/harness
	rm -rf $(SCENDIR)
	$(GO) run ./cmd/dlc-experiments -only scenario -seed 42 -out $(SCENDIR)/a
	$(GO) run ./cmd/dlc-experiments -only scenario -seed 42 -out $(SCENDIR)/b
	diff -r $(SCENDIR)/a $(SCENDIR)/b
	@echo "scenario campaign: seeded reports are byte-identical"

# Every parser-hardening fuzz target as package:Target pairs. fuzz-smoke
# (local and in CI) iterates this list, and each target loads its checked-in
# seed corpus from <package>/testdata/fuzz/<Target>/ (regenerate with
# `make fuzz-corpus`). Adding a pair here is the single step to get a new
# target fuzzed everywhere.
FUZZ_TARGETS ?= \
	internal/darshanlog:FuzzRead \
	internal/jsonmsg:FuzzParse \
	internal/event:FuzzSlabCodec \
	internal/ldms:FuzzReadFrame \
	internal/ldms:FuzzReadBatchFrame \
	internal/sos:FuzzRestore \
	internal/streams:FuzzStreamCursor \
	internal/streams:FuzzRetention \
	internal/topo:FuzzRing \
	internal/scenario:FuzzScenarioSpec

# Short fuzz pass over every target in FUZZ_TARGETS (CI runs this too).
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		echo "== fuzz $$target ./$$pkg"; \
		$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime $(FUZZTIME) ./$$pkg; \
	done

# Regenerate the checked-in fuzz seed corpora (deterministic; diffable).
fuzz-corpus:
	$(GO) run ./cmd/dlc-fuzzcorpus -root .

# Race-detector sweep over the concurrent planes (durable streams and
# their segment formats, typed records, TCP transport + both reconnecting
# senders, including their churn/Close goroutine-lifecycle and failover
# switch-back tests, DSOS, observability). -count=1 defeats
# the test cache so every run actually races; -short keeps soak
# iterations CI-sized (CI runs this too, as its own matrix leg).
race-smoke:
	$(GO) test -race -count=1 -short ./internal/streams ./internal/event ./internal/ldms ./internal/dsos ./internal/obs ./internal/topo

# The end-to-end benchmark (e2ebench/, its own module over this one)
# wires the daemons from their public constructors; vetting and testing it
# here (a short run of every workload, CI runs this too, as its own matrix
# leg) makes a constructor change that breaks the benchmark fail CI
# rather than the benchmark run.
e2e-smoke:
	cd e2ebench && $(GO) vet . && $(GO) test -count=1 .

# Statement coverage with a ratchet: fail if the total drops more than
# 0.5pt below the checked-in floor (ci/coverage.floor). Raise the floor
# when coverage durably improves; never lower it to make CI pass.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat ci/coverage.floor); \
	echo "total statement coverage: $$total% (floor $$floor%)"; \
	awk -v t=$$total -v f=$$floor 'BEGIN { if (t + 0.5 < f) { \
		printf "coverage ratchet: %.1f%% is more than 0.5pt below the %.1f%% floor\n", t, f; exit 1 } }'

# Telemetry must not perturb results: the same seeded reduced-scale
# campaign, run with telemetry off and then on, must produce byte-identical
# tables and figures (CI diffs the two output trees on every PR).
DETDIR ?= /tmp/dlc-determinism
determinism-smoke:
	rm -rf $(DETDIR)
	$(GO) run ./cmd/dlc-experiments -seed 2022 -reps 1 -scale 0.05 -out $(DETDIR)/off
	$(GO) run ./cmd/dlc-experiments -seed 2022 -reps 1 -scale 0.05 -telemetry -out $(DETDIR)/on
	diff -r $(DETDIR)/off $(DETDIR)/on
	@echo "determinism: telemetry-on outputs are byte-identical"

# Scaled-down benchmarks: one per table/figure plus pipeline microbenches.
bench:
	$(GO) test -bench . -benchmem ./...

# Pipeline-throughput microbenchmark of the typed message plane; writes
# results/BENCH_pipeline.json (events/sec, ns/event, allocs/event plus
# the 1/2/4/8-shard scaling series) and compares it against the committed
# perf floor ci/bench.floor with the floor's ±10% noise band (CI runs
# this too and uploads the JSON). The floor only tightens via an explicit
# `make bench-floor` regeneration — never from a lucky CI run.
bench-smoke:
	$(GO) run ./cmd/dlc-experiments -only pipeline -reps 3 -out results -bench-floor ci/bench.floor

# Deliberately regenerate the committed perf floor from this machine's
# run (the ratchet's only tightening path, mirroring the lint baseline).
bench-floor:
	$(GO) run ./cmd/dlc-experiments -only pipeline -reps 3 -out results -bench-floor ci/bench.floor -write-floor

# The paper's full workload sizes (slow: ~20 minutes).
bench-full:
	DLC_BENCH_SCALE=1.0 $(GO) test -bench 'Table|Figure' -benchtime 1x .

# Regenerate every table and figure at full scale into ./results.
experiments:
	$(GO) run ./cmd/dlc-experiments -reps 5 -scale 1.0 -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/haccio-monitoring
	$(GO) run ./examples/overhead-study
	$(GO) run ./examples/hdf5-tracing
	$(GO) run ./examples/live-dashboard -render-only

clean:
	rm -rf results dashboard
