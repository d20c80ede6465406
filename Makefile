GO ?= go

.PHONY: all build test bench bench-large race vet faults fuzz recovery obs hierarchical backends storage-faults tenancy paperrepro loc reach verify

all: build test

build:
	$(GO) build ./...

# Tier-1: the correctness gate, at one core and at several — results may not
# depend on the host (a flag defaulting to the core count once made this
# suite red on every multi-core box). At 4, sweep runners run their
# independent engines side by side (experiments.ForEachPoint); at 1, one
# after another.
test:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists files to format:"; gofmt -l .; exit 1; }

# The sim engine is the concurrency-sensitive core (cooperative goroutine
# scheduling: one proc runs at a time, hand-offs go through channels, and a
# failed run unwinds every parked proc); run it — and the layers the fault
# injector and the nonblocking progress engine touch — under the race
# detector separately, then the root fault-determinism suites, then the
# run-level concurrency tests, which run whole engines side by side, fault
# scenarios included (DESIGN.md §12).
race:
	$(GO) test -race ./internal/sim/... ./internal/fault/... ./internal/lustre/... ./internal/nbio/... ./internal/recovery/... ./internal/obs/... ./internal/storage/... ./internal/bb/... ./internal/pvfs/... ./internal/tenancy/... ./internal/job/...
	$(GO) test -race -run 'TestBurstUnderFailureDeterministic|TestChaosStorageFaults' -count=1 .
	$(GO) test -race -run 'TestForEachPoint|TestLegFailuresKeepTheirText|TestRunnersHostIndependent' -count=1 ./internal/experiments/...

# Fault-injection gate: vet the fault layer, then run its unit tests, the
# perturber hook tests, and the scenario determinism goldens + straggler
# sweep acceptance test (DESIGN.md §8, EXPERIMENTS.md "Straggler sweep").
faults: vet
	$(GO) test ./internal/fault/... -count=1
	$(GO) test ./internal/sim/ -run 'TestPerturber|TestResourceTrimWatermarkBoundary|TestTrimAtMinClockInRun' -count=1
	$(GO) test . -run 'TestFaultScenarios|TestHealthyScenario|TestGoldenFaultScenario|TestStragglerSweep' -count=1 -v

# Observability gate: vet the obs layer and the shared CLI package, run
# their unit tests plus the root instrumentation-identity suite (every
# scenario instrumented ≡ bare, byte-identical Perfetto exports), then
# export a real trace with collwall and schema-check it end to end
# (DESIGN.md §11, EXPERIMENTS.md "Reading a Perfetto dump").
obs:
	$(GO) vet ./internal/obs/... ./internal/cli/...
	$(GO) test ./internal/obs/... ./internal/cli/... -count=1
	$(GO) test . -run 'TestInstrumentedRunsMatchBare|TestObservedRunDeterminism|TestObservedMetricsPopulated|TestCriticalPathConsistency' -count=1 -v
	$(GO) run ./cmd/collwall -procs 32 -maxprocs 32 -minprocs 32 -groups 4 -trace-out /tmp/parcoll-trace.json -metrics > /dev/null
	$(GO) run ./examples/validatetrace /tmp/parcoll-trace.json

# Fuzz smoke: a short exploration of each native fuzz target beyond its
# checked-in seed corpus (the corpus itself already runs under `make test`).
fuzz:
	$(GO) test -fuzz 'FuzzPartitionDirect' -fuzztime=10s ./internal/core
	$(GO) test -fuzz 'FuzzSieve' -fuzztime=10s ./internal/mpiio
	$(GO) test -fuzz 'FuzzNodeSplit' -fuzztime=10s ./internal/mpi
	$(GO) test -fuzz 'FuzzExtentCoalesce' -fuzztime=10s ./internal/bb
	$(GO) test -fuzz 'FuzzExtentRedump' -fuzztime=10s ./internal/storage

# Two-level collective gate: vet the touched layers, run the hierarchy
# property/fuzz-seed and two-level protocol suites, then the root goldens,
# flat-off identity, and the fat-node acceptance test (DESIGN.md §13,
# EXPERIMENTS.md "Fat-node sweep").
hierarchical: vet
	$(GO) test ./internal/mpi/ -run 'TestSplitByNode|TestHierarchy|TestIntraComm|FuzzNodeSplit' -count=1
	$(GO) test ./internal/mpiio/ -run 'TestHier' -count=1
	$(GO) test . -run 'TestHierarchical|TestIntraNodeAggregationReducesExchange' -count=1 -v

# Fail-stop recovery gate: the retry schedule and breaker unit tests, the
# resilient-collective acceptance tests (byte-exact read-back under crashes,
# ParColl's time-to-recover strictly below ext2ph's), and the crash-plan
# determinism goldens (DESIGN.md §10, EXPERIMENTS.md "Recovery sweep").
recovery: vet
	$(GO) test ./internal/recovery/... -count=1
	$(GO) test . -run 'TestTileWriteUnderFailure|TestBTWriteUnderFailure|TestParCollRecoversFaster|TestRecoveryRunTwice' -count=1 -v

# Tier-1.5 gate + benchmark regression harness: vet, race-check the engine,
# run the full bench suite with allocation stats, and regenerate the
# machine-readable report (see DESIGN.md, "Performance model of the
# simulator", for how to read BENCH_10.json; BENCH_1.json is the PR-1
# baseline to diff allocs/op against, BENCH_3.json the pre-recovery one,
# BENCH_4.json the pre-hierarchy one, BENCH_7.json the pre-backend-seam
# one, BENCH_8.json the pre-tenancy one; the emit step also asserts the
# flat 256-proc path's allocs/op stays within 1% of the BENCH_8.json
# baseline).
bench: vet race
	$(GO) test -bench=. -benchmem -run '^$$' .
	BENCH_JSON=BENCH_10.json $(GO) test -run '^TestEmitBenchJSON$$' -count=1 -v .

# Large-scale tier: the 1024/4096-proc Fig1 points. Set
# BENCH_LARGE_STRETCH=1 for the 16384-proc stretch point.
bench-large:
	BENCH_LARGE_JSON=BENCH_6.json $(GO) test -run '^TestEmitBenchLargeJSON$$' -count=1 -v -timeout 60m .

# Storage-backend gate: vet the backend packages, run the shared
# conformance suite against all three backends plus their unit tests, and
# the root acceptance tests — list-I/O request reduction with bytes
# conserved, and the checkpoint-burst claim that the burst buffer's
# write-call time beats pass-through lustre at compute/IO >= 1 with a
# byte-exact read-back after the drain (DESIGN.md §14, EXPERIMENTS.md
# "Checkpoint burst").
backends:
	$(GO) vet ./internal/storage/... ./internal/bb/... ./internal/pvfs/... ./internal/lustre/...
	$(GO) test ./internal/storage/... ./internal/bb/... ./internal/pvfs/... ./internal/lustre/ -count=1
	$(GO) test . -run 'TestBackendSweepListIO|TestCheckpointBurst' -count=1 -v

# Storage-tier fault-tolerance gate: vet the fault and backend layers, run
# the shared fault-injection conformance leg against all three backends,
# the extent/ledger algebra tests, and the root acceptance suite — a bb
# node lost mid-burst with checksum-verified byte-exact read-back and
# ParColl degrading strictly less than ext2ph, flaky drains charging retry
# time without losing data, a dead list-I/O server carried by the scalar
# fallback, run-twice determinism, and the seeded chaos sweep (DESIGN.md
# §15, EXPERIMENTS.md "Checkpoint burst under failure").
storage-faults: vet
	$(GO) test ./internal/fault/ -count=1
	$(GO) test ./internal/lustre/ ./internal/pvfs/ ./internal/bb/ -run 'TestBackendFaultConformance' -count=1
	$(GO) test ./internal/storage/... -count=1
	$(GO) test . -run 'TestCheckpointBurstSurvivesBBNodeLoss|TestCheckpointBurstUnderFlakyDrain|TestTileUnderDeadPVFSServer|TestBurstUnderFailureDeterministic|TestChaosStorageFaults|TestGoldenBurstStagingLoss|TestGoldenTileStagingLoss' -count=1 -v

# Regenerate the checked-in full-scale transcript. -timings=false drops the
# wall-clock lines so the file is a pure function of the simulation — any
# diff after running this target is a real virtual-time change.
paperrepro:
	$(GO) run ./cmd/paperrepro -procs 1024 -timings=false > paperrepro_output.txt

# Multi-tenancy gate: vet the tenancy/job/qos layers, run the trace and
# spec unit tests, the tenancy determinism suite (run-twice bit-identity,
# healthy and one-straggler, byte-exact verification),
# the QoS acceptance tests (FIFO slowdown > 1, fair-share lowering the small
# job's p99, ParColl confining the straggler), and the spec-equals-flags
# golden over every cmd tool (DESIGN.md §16, EXPERIMENTS.md
# "Shared-filesystem interference").
tenancy: vet
	$(GO) test ./internal/job/... ./internal/qos/... -count=1
	$(GO) test ./internal/tenancy/... -count=1 -v
	$(GO) test ./internal/cli/ -run 'TestSpecEqualsFlags' -count=1

# Non-test, non-comment, non-blank Go lines per package — the size metric the
# roadmap tracks; its target direction is down. A test-support package (one
# whose non-test files import "testing", such as storagetest) prints after
# the product total and does not count in it.
loc:
	@$(GO) list -f '{{.Dir}}{{range .Imports}}{{if eq . "testing"}} test-support{{end}}{{end}}' ./... | \
	while read -r d tag; do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
		printf '%6d  %s%s\n' $$n .$${d#$(CURDIR)} "$${tag:+  ($$tag)}"; \
	done | sort -k2 | awk '/test-support/ {held = held $$0 "\n"; next} {print; t += $$1} END {printf "%6d  total\n%s", t, held}'

# Reachability census (ROADMAP item 10): build every tool with coverage, run
# each `run` line of reach.txt under one GOCOVERDIR, take a second profile
# from the tests, then TestReach labels every internal/ statement run,
# test-only or neither and prints the counts beside `make loc`. It fails
# when an invocation fails, or when reach.txt's kept list and the census
# disagree. About 7 minutes on two cores, most of it the 1024-rank
# transcript line.
REACH ?= /tmp/parcoll-reach
reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/bin $(REACH)/cov $(REACH)/work
	$(GO) build -cover -coverpkg=./... -o $(REACH)/bin/ ./cmd/... ./examples/...
	$(GO) build -C bench -cover -coverpkg=repro/... -o $(REACH)/bin/bench .
	$(GO) test -c -cover -coverpkg=./... -o $(REACH)/bin/repro.test .
	@sed -n 's/^run //p' reach.txt | while read -r cmd; do \
		printf "reach: %s\n" "$$cmd"; \
		(cd $(REACH)/work && PATH=$(REACH)/bin:$$PATH GOCOVERDIR=$(REACH)/cov sh -c "$$cmd" > /dev/null) || \
			{ printf "reach: exit %s from: %s\n" $$? "$$cmd"; exit 1; }; \
	done
	$(GO) tool covdata textfmt -i=$(REACH)/cov -o $(REACH)/run.out
	$(GO) test -count=1 -coverpkg=./... -coverprofile=$(REACH)/test.out ./... > $(REACH)/test.log || { tail -30 $(REACH)/test.log; exit 1; }
	@$(MAKE) --no-print-directory loc > $(REACH)/loc.txt
	REACH_RUN=$(REACH)/run.out REACH_TEST=$(REACH)/test.out REACH_LOC=$(REACH)/loc.txt $(GO) test -run '^TestReach$$' -count=1 -v .

# The full verification sweep: tier-1 build+test, vet, the race gate, the
# tenancy gate, the benchmark harness's own tests (bench/ is a module of its
# own, so ./... does not reach it), a transcript regeneration so
# paperrepro_output.txt can't drift from the code, and the size table.
verify: all vet race tenancy paperrepro
	$(GO) test -C bench ./...
	@$(MAKE) --no-print-directory loc
