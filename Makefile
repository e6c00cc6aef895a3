GO ?= go

.PHONY: all fmt build vet test race chaos chaos-supervised multiproc chaos-multiproc chaos-partial chaos-corrupt chaos-partition chaos-jobs stats-smoke bench bench-json bench-smoke bench-compare fuzz

all: fmt vet build test bench-smoke

# Formatting gate: fails when any Go file (the bench/ module included)
# is not gofmt-clean; `gofmt -l .` lists the offenders.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection soak: reliable delivery, dedup, reorder tolerance,
# chaos runs of the stencil and circuit workloads, and the deadlock
# watchdog — all under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Fault|Chaos|Watchdog|Reliable|Dedup|Crash|Stall|Interrupt' \
		./internal/cluster ./internal/collective ./internal/core .

# Self-healing soak: heartbeat failure detection, cumulative acks,
# supervised crash recovery (seeded random shard crashes converging
# bit-identically), and divergence localization — under the race
# detector.
chaos-supervised:
	$(GO) test -race -count=1 -run 'Supervisor|Divergence|Heartbeat|CumulativeAcks|Resume|PeriodicCheckpoints' \
		./internal/cluster ./internal/core

# Multi-process acceptance: run the stencil and circuit workloads as 4
# real OS processes over TCP loopback and demand outputs and ControlHash
# bit-identical to the in-process backend.
multiproc:
	$(GO) build -o bin/godcr-node ./cmd/godcr-node
	./bin/godcr-node -launch -n 4 -workload stencil
	./bin/godcr-node -launch -n 4 -workload circuit

# Remote supervised recovery soak: run each workload as real OS
# processes under the process supervisor, SIGKILL a seeded random
# worker mid-run, respawn it as reborn on the same address and
# checkpoint directory, and demand outputs and ControlHash bit-identical
# to the undisturbed supervised run AND the in-process backend (both
# compare against the same in-process baseline). The unit-level slice
# (revive barrier, epoch rendezvous, in-test rebirth) runs under the
# race detector.
chaos-multiproc:
	$(GO) build -o bin/godcr-node ./cmd/godcr-node
	./bin/godcr-node -launch -supervise -n 3 -workload stencil -steps 30
	./bin/godcr-node -launch -supervise -n 3 -workload circuit -steps 24
	./bin/godcr-node -launch -supervise -n 3 -kill 1 -seed 7 -workload stencil -steps 30
	./bin/godcr-node -launch -supervise -n 3 -kill 1 -seed 11 -workload circuit -steps 24
	./bin/godcr-node -launch -supervise -n 4 -kill 2 -seed 3 -workload stencil -steps 30
	./bin/godcr-node -launch -supervise -n 3 -kill 1 -seed 13 -codec gob -workload stencil -steps 30
	$(GO) test -race -count=1 -run 'RemoteSupervisedRecovery|TCPReviveBarrier|TCPEpochSync|TCPCloseDuringDialBackoff|HeartbeatStaleEpoch' \
		./internal/cluster ./internal/core

# Partial-restart soak: seeded single-shard SIGKILL over real OS
# processes with -partial (survivors park at their frontier and
# re-serve; only the dead shard re-executes its gap), including a
# multi-shard-per-process topology, plus the in-process partial matrix
# (determinism, history scope, forced escalation, replay-buffer
# overflow) under the race detector.
chaos-partial:
	$(GO) build -o bin/godcr-node ./cmd/godcr-node
	./bin/godcr-node -launch -supervise -partial -n 4 -kill 1 -seed 7 -workload stencil -steps 30
	./bin/godcr-node -launch -supervise -partial -n 4 -kill 2 -seed 11 -workload circuit -steps 24
	./bin/godcr-node -launch -supervise -partial -n 4 -procs 2 -kill 1 -seed 5 -workload stencil -steps 30
	$(GO) test -race -count=1 -run 'TestPartial' ./internal/core

# Integrity soak, corruption half: frame/checkpoint codec totality and
# CRC verdicts, corruption-as-loss recovery, generation-chain fallback,
# and supervised convergence under corrupt spills — all under the race
# detector — then real-process runs with seeded bit-flips on the TCP
# wire (the launcher demands a nonzero cluster-wide CRC-rejection count)
# and a SIGKILL+corrupted-checkpoint respawn.
chaos-corrupt:
	$(GO) test -race -count=1 -run 'Corrupt|TestFrame|CheckpointGeneration|CheckpointFileTruncation' \
		./internal/cluster ./internal/core
	$(GO) build -o bin/godcr-node ./cmd/godcr-node
	./bin/godcr-node -launch -n 4 -corrupt 0.02 -workload stencil
	./bin/godcr-node -launch -n 4 -corrupt 0.02 -workload circuit
	./bin/godcr-node -launch -supervise -n 3 -kill 1 -seed 7 -corrupt-ckpt -workload stencil -steps 30

# Integrity soak, partition half: link severing (two-way, one-way,
# triggered, healing), deterministic phi conviction of a partitioned
# shard, and supervised convergence across a heal — under the race
# detector — then a real-process run where one shard is fully isolated
# for a window and the cluster must converge bit-identically after it
# heals.
chaos-partition:
	$(GO) test -race -count=1 -run 'Partition' ./internal/cluster ./internal/core
	$(GO) build -o bin/godcr-node ./cmd/godcr-node
	./bin/godcr-node -launch -supervise -n 4 -partition 400ms -partition-shard 2 -workload stencil -steps 30
	./bin/godcr-node -launch -supervise -n 3 -partition 300ms -partition-shard 1 -workload circuit -steps 24

# Multi-tenant job-plane soak: job-salted tag/collective isolation,
# ErrProgramBusy admission, per-job checkpoint GC, concurrent jobs on
# one resident host over both backends (including a seeded chaos kill
# of one job while its neighbor completes bit-identically), and the
# godcr-node job-server stream — all under the race detector.
chaos-jobs:
	$(GO) test -race -count=1 -run 'TestJob|TestConcurrentJobs|TestNewJobZero' \
		./internal/cluster ./internal/collective ./internal/core
	$(GO) test -race -count=1 ./cmd/godcr-node

# Observability smoke: boot a supervised job server with the /stats
# HTTP endpoint, submit a job, scrape /stats over real HTTP while the
# job is mid-run, and validate every response against the schema the
# server test asserts.
stats-smoke:
	$(GO) build -o bin/godcr-node ./cmd/godcr-node
	./bin/godcr-node -stats-smoke -n 3

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable benchmark record: regenerates the committed
# BENCH_core.json (stencil + circuit at 1/4/8 shards, plus the
# journal-on/off stencil comparison).
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_core.json

# The repository benchmark (bench/, its own module — the root ./...
# patterns do not descend into it): vet it, run its tests, and drive
# every workload once at smoke sizes. Touches no tracked file.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	$(GO) run -C bench . -quick

# Before/after in one command: the full suite at BASE (in a throwaway
# worktree; HEAD when unset, i.e. what the working tree changed) and at
# the working tree, then the committed bounds. Each suite run appends
# its medians to its own tree's bench/BENCH_history.jsonl, by the
# benchmark's design.
BENCH_CMP := $(CURDIR)/.bench_compare
bench-compare:
	rm -rf $(BENCH_CMP) && git worktree prune && mkdir -p $(BENCH_CMP)
	git worktree add --detach $(BENCH_CMP)/base $(BASE)
	$(GO) run -C $(BENCH_CMP)/base/bench . -out $(BENCH_CMP)/base.json; \
		st=$$?; git worktree remove --force $(BENCH_CMP)/base; exit $$st
	$(GO) run -C bench . -out $(BENCH_CMP)/head.json
	$(GO) run -C bench . -compare $(BENCH_CMP)/base.json $(BENCH_CMP)/head.json

# Fuzz smoke: the wire codec, the payload codec seam (binary decoder
# totality + gob-fallback dispatch), and the journal/checkpoint codec
# each get a short randomized hammering (longer runs: raise -fuzztime).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzPayloadCodec -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/core
