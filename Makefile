# Build, verification and benchmark entry points. `make verify` is the
# tier-1 path: build + vet + full tests, plus the whole module under the
# race detector (as CI's "Test (race)" step runs it) and the engine's
# and pipeline's concurrency tests repeated ten times. Serving-path
# performance is measured end to end by `go run ./benchmark` (see
# benchmark/README.md);
# the targets here are the kernel microbenchmarks and the two guards
# (obsguard, robustguard) that protect what that bench does not.

GO ?= go

.PHONY: build vet test race fuzz verify cover loc obsbench obsguard robustbench robustguard metrics-lint loadsmoke allocgate microbench chaos conformance whatif serve

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -timeout 5m -run 'TestGate|TestEngineBurst|TestEngineLargeStepNotStarved|TestEngineBlockedBackend|TestEnginePassDoesNotWaitForSteps|TestEngineBoxNeverStepsConcurrently|TestEngineIngestHeadroom|TestEngineCancel|TestEngineStepPanic|TestEngineIdleGapBurst|TestEngineDueStepBefore|TestEngineAppendDuringModelPhase|TestEngineEstimateIsModelPhaseTime|TestEngineNoModelWork' ./internal/engine/
	$(GO) test -race -count=10 -run 'TestPrepare' ./internal/core/

verify: build vet test race

# Coverage-guided fuzzing, FUZZTIME per target (go test -fuzz takes one
# target and one package at a time): the ingest wire decoder against
# encoding/json, the CSV trace reader, the MCKP greedy solver, the DTW
# kernel against its row-by-row oracle, and the state store's ring
# (Extend/Range under wrap, eviction and growth) against a slice
# model. A crasher is written under
# the package's testdata/fuzz/ — commit it as a regression seed.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzIngestDecode$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzGreedy$$' -fuzztime $(FUZZTIME) ./internal/resize/
	$(GO) test -run '^$$' -fuzz '^FuzzDTWKernel$$' -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzRing$$' -fuzztime $(FUZZTIME) ./internal/timeseries/

# Fault-injection suite under the race detector: retry/breaker state
# machines, chaos transport, transactional apply/rollback and the
# degraded pipeline. All fault schedules are seeded, so this is
# deterministic — a failure here is a real bug, not flake.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Flaky|Breaker|Retry|Apply|Partial|Rollback|Degraded|Panic' ./internal/resilience/... ./internal/actuator/... ./internal/core/... ./internal/parallel/...

# Backend-conformance suite under the race detector: the same
# transactional, classification and chaos scenarios (30% seeded fault
# rate) against every actuation backend — cgroups daemon over HTTP,
# the simulated testbed cluster and the in-process registry. Seeded,
# so a failure is a bug.
conformance:
	$(GO) test -race -count=1 -v -run 'Conformance' ./internal/actuator/conformance/

# Dry-run smoke: proves `atmcli apply -dry-run` and the engine's
# DryRun mode perform zero mutating calls, measured by counting fake
# backends at both the HTTP layer and the Backend interface.
whatif:
	$(GO) test -count=1 -v -run 'TestApplyDryRunZeroWrites' ./cmd/atmcli/
	$(GO) test -count=1 -v -run 'TestEngineDryRunZeroWrites' ./internal/engine/
	$(GO) test -count=1 -v -run 'TestWhatIfRoute' ./internal/serve/

# Full-suite coverage profile plus the total percentage on stdout; CI
# uploads coverage.out as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Non-test Go lines per package, benchmark/ excluded — the table a
# simplification PR's CHANGES.md entry quotes before and after.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) print n[d], d | "sort -k2"; close("sort -k2"); print t, "total" }'

# Go micro-benchmarks for the reworked kernels (allocation counts
# included; the DTW kernels, the pooled envelope path, a retained MLP
# fit and the ingest wire decoder must stay at 0 allocs/op
# steady-state). DTWKernel times one pair at the serving path's three
# shapes (unconstrained 480x480, band 12, early abandon) and MLPFit one
# fit of the paper's model on a five-day window. IngestDecode times the
# wire decoder beside the encoding/json path it replaced; AppendBatch
# is the store's series-major bulk append. EngineBurst makes 32
# mixed-size boxes due at once right after their last plans (together),
# in 4 batches 1 ms apart (staggered) or at once after the engine has
# gone idle, model phases run ahead (paced), and reports the median
# ready-to-published time and the CPU a burst cost beside its makespan.
microbench:
	$(GO) test -run NONE -bench 'BenchmarkDTW|BenchmarkEnvelopeAllocs|BenchmarkOptimalCut' -benchmem ./internal/cluster/ .
	$(GO) test -run NONE -bench 'BenchmarkMLPFit' -benchmem ./internal/predict/
	$(GO) test -run NONE -bench 'BenchmarkIngestDecode|BenchmarkAppendBatch' -benchmem ./internal/serve/ ./internal/state/
	$(GO) test -run NONE -bench 'BenchmarkEngineBurst' ./internal/engine/

# Zero-allocation gates for the incremental kernels, the DTW kernel, a
# retained MLP's fit+forecast, the arena step and the ingest path (wire
# decode, store batch append, ring bulk append), run WITHOUT the race
# detector (the detector inflates allocation counts, so these tests
# skip themselves under -race).
allocgate:
	$(GO) test -count=1 -run 'AllocFree|AllocationFree' ./internal/cluster/ ./internal/predict/ ./internal/linalg/ ./internal/regress/ ./internal/spatial/ ./internal/resize/ ./internal/core/ ./internal/engine/ ./internal/score/ ./internal/control/ ./internal/serve/ ./internal/state/ ./internal/timeseries/

# Observability self-overhead benchmark: the streaming hot loop bare
# vs fully instrumented (spans + decision events + trace adoption);
# emits BENCH_obs.json plus a human-readable table.
obsbench:
	$(GO) run ./cmd/atmbench -obsbench BENCH_obs.json -reps 5

# Self-overhead gate: re-measures and fails if the instrumented hot
# loop costs more than ObsOverheadBudget (15%) over the bare loop, if
# instrumentation changed any published plan, or if the plane recorded
# no spans/events. The budget is absolute, so the gate cannot drift.
# Reps are higher than obsbench's because the gate takes the median
# ratio of interleaved pairs and more pairs tighten it against noise.
obsguard:
	$(GO) run ./cmd/atmbench -obsguard BENCH_obs.json -reps 7

# Robust-control frontier benchmark: fixed trust λ ∈ {0, ¼, ½, ¾, 1}
# vs the drift-adaptive controller on stationary + adversarial traces
# (regime change, flash crowd, telemetry poisoning); emits
# BENCH_robust.json plus fig_robust_frontier.svg.
robustbench:
	$(GO) run ./cmd/atmbench -robustbench BENCH_robust.json

# Robustness gate over the checked-in frontier: re-runs the sweep and
# fails if λ=1 stops being bit-identical to the control-off engine on
# the stationary trace, if the adaptive controller's tickets exceed
# the best fixed endpoint min(λ=0, λ=1) plus tolerance on any family,
# or if it drifts above its own recorded frontier.
robustguard:
	$(GO) run ./cmd/atmbench -robustguard BENCH_robust.json

# Prometheus exposition conformance: atm_ metric naming, HELP/TYPE
# lines, and shard-label cardinality, checked against a live scrape.
metrics-lint:
	$(GO) test -count=1 -run TestMetricsExpositionConformance ./cmd/atmd/

# Load-harness smoke: atmload boots the production service in-process,
# runs a short deterministic load through real HTTP, and fails unless
# every accepted sample is accounted for and the engine plans the
# fleet.
loadsmoke:
	$(GO) run ./cmd/atmload -selftest

# Boot the streaming ATM service against a freshly generated demo
# trace: tracegen writes the trace, atmd serves the ingestion/planning
# API (with reuse + actuation on), and `atmcli stream` is the matching
# replay client. Ctrl-C drains and exits.
serve:
	$(GO) run ./cmd/tracegen -boxes 4 -days 3 -windows 32 -gaps 0 -o demo_trace.csv
	@echo "atmd on :8023 — replay with:"
	@echo "  go run ./cmd/atmcli stream -trace demo_trace.csv -daemon http://localhost:8023 -rate 200"
	$(GO) run ./cmd/atmd -serve -train 64 -horizon 32 -spd 32 -reuse -actuate
