# Developer entry points. CI runs the same steps (see .github/workflows/ci.yml).

GO ?= go

.PHONY: test race bench bench-smoke bench-check progress-sample fmt vet fuzz-smoke cover chaos soak crashsoak perfbench-test

# chaos runs the fault-injection matrix, checkpoint/resume equivalence,
# cancellation, the per-probe reference-loop check and the neighborhood
# heuristic tests under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Checkpoint|Cancel|SerialOracle|Neighborhood' ./internal/core

# soak runs the multi-tenant scheduler chaos harness under the race
# detector: concurrent tenant campaigns under injected crash/stall/
# transient faults, supervisor-neutrality byte-equality, watchdog
# failover, and the drain -> restart -> drain continuation chain. The
# wall cap keeps a wedged supervisor from hanging CI.
soak:
	$(GO) test -race -count=1 -timeout 5m -run 'Soak|ChaosSoak|Neutrality|Watchdog|Admission|Breaker|PeriodicCheckpoint' ./internal/sched

# crashsoak is the process-level kill-9 harness plus the durable-store
# unit suite: real beholderd subprocesses SIGKILLed at randomized
# instants (mid-run, mid-periodic-checkpoint, mid-drain), restarted on
# the same state dir, and required to finish every campaign byte-equal
# to a solo fault-free run — with planted-corruption quarantine,
# signal-drain, and zero-quarantine-on-clean-run checks riding along.
# The wall cap keeps a wedged daemon from hanging CI.
crashsoak:
	$(GO) test -race -count=1 -timeout 8m ./internal/store ./cmd/beholderd

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# perfbench-test vets and self-tests the benchmark harness, a module of
# its own that root `go test ./...` does not see, though it drives the
# facade (RunYarrp6, Result.ShardStats, Scheduler) and internal/*.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# bench writes BENCH_PR8.json: probes/s and allocs/probe for the
# hot-path benchmarks, the shard-scaling sweep (shards x batch sizes,
# engine time only) with core-normalized parallel efficiency, and the
# recorded PR 3 baseline with the speedup over it.
bench:
	$(GO) run ./cmd/bench -benchtime 1.5s -out BENCH_PR8.json

# bench-smoke runs the set-up benchmarks (seed-list generation per
# list, target-set building) and the batch graph build and union once
# each, so benchmarks that only compile in `go test` cannot rot
# unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SeedList|TargetBuild|FromStore|GraphMerge' -benchtime 1x ./internal/seeds ./internal/graph .

# bench-check is the CI gate: short-form run that fails when any hot
# benchmark's steady-state allocs/probe exceeds the bound, when
# 4-shard parallel efficiency falls below 0.6, when the fully
# instrumented campaign (telemetry registry + progress stream) drops
# below 0.95x the bare campaign's throughput, when a supervised
# single-tenant campaign drops below 0.95x the bare campaign, when
# periodic checkpointing costs more than 5% of drain-only supervised
# throughput (-min-ckpt-ratio), or when the adaptive loop's discovery
# per probe falls below 1.1x an equal-budget static target list.
bench-check:
	$(GO) run ./cmd/bench -benchtime 150ms -check

# progress-sample writes a small campaign's NDJSON progress stream —
# the live-observability artifact CI uploads for every build.
progress-sample:
	$(GO) run ./cmd/yarrp6 -small -seeds cdn-k32 -scale 0.2 -rate 8000 -shards 2 -progress progress-sample.ndjson
	head -3 progress-sample.ndjson

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# fuzz-smoke gives each native fuzz target a short budget beyond its
# checked-in seed corpus (testdata/fuzz); bump FUZZTIME for a real hunt.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run xxx -fuzz '^FuzzBuildDecodeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run xxx -fuzz '^FuzzParseReply$$' -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run xxx -fuzz '^FuzzProbeCacheEquivalence$$' -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run xxx -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzRestoreState$$' -fuzztime $(FUZZTIME) ./internal/gen6prob
	$(GO) test -run xxx -fuzz '^FuzzStoreRecover$$' -fuzztime $(FUZZTIME) ./internal/store

# cover writes the aggregate coverage profile and prints the total; CI
# fails if the total drops below its recorded baseline.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
