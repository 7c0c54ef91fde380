# Developer entry points. CI runs the same steps (see .github/workflows/ci.yml).

GO ?= go

.PHONY: test race bench bench-check bench-selftest progress-sample cli-roundtrip fmt vet fuzz-smoke cover chaos soak crashsoak loc

# chaos runs the fault-injection matrix, the rewind chain, the interrupt
# and cancellation tests, and the campaign equivalence property with its
# matrix rows — shards, batches, plan table, checkpoint/resume and rewind
# cuts, past rate-limit saturation — under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Checkpoint|Cancel|Rewind|Interrupt|Equivalence|Matrix|ShardedMatches|Scheduling' ./internal/core

# soak runs the multi-tenant scheduler chaos harness under the race
# detector: concurrent tenant campaigns under injected crash/stall/
# transient faults, supervisor-neutrality byte-equality, watchdog
# failover, the drain -> restart -> drain continuation chain, and the
# tenant stream's progress records across all of them. The watchdog,
# breaker, periodic-checkpoint and stream tests advance a fake
# supervision clock instead of sleeping; CI's soak job reruns them with
# -count=10 after this target. The wall cap keeps a wedged supervisor
# from hanging CI.
soak:
	$(GO) test -race -count=1 -timeout 5m -run 'Soak|ChaosSoak|Neutrality|Watchdog|Admission|Breaker|PeriodicCheckpoint|StreamCarriesProgress' ./internal/sched

# crashsoak is the durable-store suite — every fault kind at every
# filesystem step of a Put/Delete/Quarantine script — plus beholderd's
# seeded crash-and-reopen harness over its long seed list (`go test
# -short` runs a few): in-process daemon generations that each crash the
# store's fault layer at a seeded step, one inside a drain, and reopen
# on the surviving disk image, until a final generation finishes every
# campaign byte-equal to its solo run. A failing seed replays with
# go test -run 'TestCrashReopen/seed=N$' ./cmd/beholderd. One real
# SIGKILL and one SIGTERM drain of a daemon subprocess ride along. The
# wall cap keeps a wedged daemon from hanging CI.
crashsoak:
	$(GO) test -race -count=1 -timeout 8m ./internal/store/... ./cmd/beholderd

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# bench writes BENCH_PR8.json: probes/s and allocs/probe for the
# hot-path benchmarks, the shard-scaling sweep (shards x batch sizes,
# engine time only) with core-normalized parallel efficiency, and the
# recorded PR 3 baseline with the speedup over it.
bench:
	$(GO) run ./cmd/bench -benchtime 1.5s -out BENCH_PR8.json

# bench-check is the CI gate: short-form run that fails when any hot
# benchmark's steady-state allocs/probe exceeds the bound, when
# 4-shard parallel efficiency falls below 0.6, when the fully
# instrumented campaign (telemetry registry + progress stream) drops
# below 0.95x the bare campaign's throughput, when a supervised
# single-tenant campaign drops below 0.95x the bare campaign, when
# periodic checkpointing costs more than 5% of drain-only supervised
# throughput (-min-ckpt-ratio). The adaptive loop's deterministic
# discovery-per-probe bound (1.1x an equal-budget static target list)
# is TestAdaptiveYield, part of `go test`.
bench-check:
	$(GO) run ./cmd/bench -benchtime 150ms -check

# bench-selftest vets and tests the benchmark in bench/ — a module of its
# own, which `go build ./... && go test ./...` never compiles. Its
# replay-equals-engine and toy-scale workload checks are what notice
# when probe, core, netsim, sched or store change shape under it.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# progress-sample writes a small campaign's NDJSON progress stream —
# the live-observability artifact CI uploads for every build.
progress-sample:
	$(GO) run ./cmd/yarrp6 -small -seeds cdn-k32 -scale 0.2 -rate 8000 -shards 2 -progress progress-sample.ndjson
	head -3 progress-sample.ndjson

# cli-roundtrip runs one 1-shard yarrp6 campaign whole, then again cut
# at 500ms of virtual time into a checkpoint and resumed from it: the
# resumed run's stdout must equal the whole run's byte for byte. Its
# files live in a temporary directory removed on exit.
cli-roundtrip:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	y="$(GO) run ./cmd/yarrp6 -small"; \
	$$y -seeds caida -scale 0.2 -rate 8000 >"$$d/whole"; \
	$$y -seeds caida -scale 0.2 -rate 8000 -interrupt-at 500ms -checkpoint "$$d/run.ckpt" >/dev/null; \
	$$y -resume "$$d/run.ckpt" >"$$d/resumed"; \
	cmp "$$d/whole" "$$d/resumed"; \
	echo "cli-roundtrip: resumed stdout equals the uninterrupted run's ($$(head -1 "$$d/whole"))"

# loc prints the non-test line count of the engine and its facade — the
# files ROADMAP "Collapse the engine" is measured on — then that of
# internal/graph, then all non-test Go outside bench/ (the figure ROADMAP
# quotes). CHANGES.md records them before and after a collapsing PR;
# nothing gates on them.
loc:
	@ls internal/core/*.go | grep -v _test.go | xargs wc -l internal/probe/probe.go beholder.go sched_facade.go | tail -1
	@ls internal/graph/*.go | grep -v _test.go | xargs wc -l | tail -1 | sed 's/total/internal\/graph/'
	@echo "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l) non-test Go outside bench/"

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
	$(GO) test -run xxx -fuzz '^FuzzProbeBuildEquivalence$$' -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run xxx -fuzz '^FuzzDecodeStore$$' -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run xxx -fuzz '^FuzzFoldBlock$$' -fuzztime $(FUZZTIME) ./internal/probe
	$(GO) test -run xxx -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz '^FuzzRestoreState$$' -fuzztime $(FUZZTIME) ./internal/gen6prob
	$(GO) test -run xxx -fuzz '^FuzzStoreRecover$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run xxx -fuzz '^FuzzImportSimState$$' -fuzztime $(FUZZTIME) ./internal/netsim
	$(GO) test -run xxx -fuzz '^FuzzPrimeMatchesSend$$' -fuzztime $(FUZZTIME) ./internal/netsim
	$(GO) test -run xxx -fuzz '^FuzzSubmitTargets$$' -fuzztime $(FUZZTIME) ./cmd/beholderd
	$(GO) test -run xxx -fuzz '^FuzzAggregate$$' -fuzztime $(FUZZTIME) ./internal/kip
	$(GO) test -run xxx -fuzz '^FuzzNewSet$$' -fuzztime $(FUZZTIME) ./internal/ipv6

# cover writes the aggregate coverage profile and prints the total; CI
# fails if the total drops below its recorded baseline.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
