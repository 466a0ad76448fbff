GO ?= go

.PHONY: build loc knobs vet lint test allocs race flake bench bench-smoke soak chaos crash fuzz ci

build:
	$(GO) build ./...

# The size every simplicity PR quotes: non-test Go lines outside
# benchmark/ (and outside its git-ignored build directory).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# The public surface every simplicity PR quotes: the exported fields of
# every config object — veridb.Config, core.Config, vmem.Config and
# server.Config (counted from go doc's source view) — the flags
# veridb-server and veridb-cli define, and the methods of the storage
# seam: every value a non-test caller can set.
CONFIG_FIELDS = awk '/^type [A-Za-z]+ struct/ {f = 1; next} f && /^}/ {exit} f && /^\t[A-Z][A-Za-z0-9]* / {n++} END {print n}'
FLAGS = grep -c 'flag\.\(Bool\|Int\|Int64\|String\|Duration\|Var\)('
knobs:
	@printf 'veridb.Config fields: '; $(GO) doc -u -src . Config | $(CONFIG_FIELDS)
	@printf 'core.Config fields:   '; $(GO) doc -u -src ./internal/core Config | $(CONFIG_FIELDS)
	@printf 'vmem.Config fields:   '; $(GO) doc -u -src ./internal/vmem Config | $(CONFIG_FIELDS)
	@printf 'server.Config fields: '; $(GO) doc -u -src ./internal/server Config | $(CONFIG_FIELDS)
	@printf 'veridb-server flags:  '; $(FLAGS) cmd/veridb-server/main.go
	@printf 'storage.Engine methods: '; $(GO) doc -u -src ./internal/storage Engine | grep -cE '^[[:space:]]+[A-Z][A-Za-z]*\('
	@printf 'veridb-cli flags:     '; $(FLAGS) cmd/veridb-cli/main.go

vet:
	$(GO) vet ./...

# Static analysis: go vet always, staticcheck when installed (CI installs
# it; local runs degrade gracefully so the target never needs network).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only"; \
	fi

test:
	$(GO) test ./...

# The allocation gates, every Test…Allocs in the tree, uncached and
# without the race detector, under which the gates that lean on sync.Pool
# skip: the verified scan row and point read, the verified write, and the
# MAC'd round trip. Counts, not timings, so they hold on any host.
allocs:
	$(GO) test -count=1 -run 'Allocs$$' ./...

# Verification is the concurrency-heavy part of the tree; the race
# detector must stay green with VerifyAll's page fan-out and the
# background verifier running beside protected operations.
race:
	$(GO) test -race -count=1 ./...

# Flake gate: the three tier-1 tests that used to fail a few runs in ten on
# a 2-core host, and the deterministic regression tests for the bugs
# behind them (VerifyAll masking a raised alarm, VerifyAll blocking behind
# an idle background pass, an unflagged response from an instance
# quarantined mid-statement), plus the two connection-level refusal tests,
# which race a qid-0 TError frame against the close behind it, and the two
# tests of Drain beside a still-running accept loop (the abrupt-disconnect
# one tripped the race detector about 1 run in 30), and the three tests
# that race frames or writers against each other by design — a duplicated
# shed behind its first copy, a pipeline through the duplicating, stalling
# and dropping chaos connection, writers joining a commit group behind a
# blocked fsync — and the fault-containment trial of every chaos fault
# kind (detect, fence, Recover from a replica, resume above the seq
# floor), and the two tests of a fenced-then-recovered client and a
# retransmit timer parked behind a shed, and the three portal tests that
# race requests against a client's own lock (distinct qids of one client,
# copies of one qid, two clients keeping responses in their replay
# windows), fifty times each under the race detector. The bounded-version-state test drives 25 000 TPC-C
# transactions (about a minute under the race detector), so it runs three
# times. The overload storm failed only without the race detector (a
# session driver that idled after a shed BEGIN SNAPSHOT had pinned
# nothing for the reaper to expire), so it also runs fifty times without
# it.
flake:
	$(GO) test -race -count=50 -timeout 10m \
		-run 'TestVerifierLifecycleNoLeak|TestSupervisorFailoverEndToEnd|TestTamperDetectedUnderConcurrentVerifyAll|TestVerifyAllReturnsAlarmRaisedByBackgroundPass|TestVerifyAllOnIdleMemoryWithPassInFlight|TestQuarantineRaisedDuringExecutionIsFlagged|TestConnectionLevelRefusals|TestPipelineSurfacesConnectionRefusal|TestBinaryAbruptDisconnectLeaksNothing|TestDrainBesideAcceptLoop|TestPipelineDuplicateShedIsNotARollback|TestPipelineThroughChaosConn|TestFsyncIsTheWindow|TestFaultRecoveryEveryKind|TestPipelineStaleRetransmitTimerIsIgnored|TestServeConcurrentDistinctQIDs|TestServeConcurrentSameQIDExecutesOnce|TestReplayWindowConcurrentClients' \
		./internal/core ./internal/vmem ./internal/portal ./internal/server ./internal/client ./internal/wal
	$(GO) test -race -count=3 -timeout 10m -run 'TestVersionStateBoundedWithoutPins|TestVersionGCReclaims' ./internal/storage
	$(GO) test -count=50 -timeout 10m -run 'TestOverloadStormDrains$$' ./internal/core

# The paper's figures (bench_test.go) and the per-package sweeps, each
# benchmark compiled and run once: a smoke that every figure still runs,
# not a measurement. EXPERIMENTS.md names the -bench pattern, -cpu and
# -count behind each recorded table.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repo benchmark (BENCHMARK.json) for two seconds per workload,
# untraced. It exits non-zero on any MAC failure, wrong answer,
# durability mismatch, TPC-C violation or post-drain goroutine.
bench-smoke:
	bash benchmark/run.sh -seconds 2 -trace 0

# Steady state: the TPC-C and durable-write workloads for five minutes
# each, long enough for version state and the WAL to reach their bounds
# (writers reclaim retired versions; the log checkpoints itself). Not part
# of ci.
soak:
	bash benchmark/run.sh -workload storage_tpcc,wire_write_durable -seconds 300

# Fault-injection suite: the chaos injector, the quarantine and Recover
# paths in core (the containment trial of every fault kind and the
# overload storm with its post-drain leak checks among them), the client
# pipeline's retry policy, and the portal replay window — all under the
# race detector, uncached, with a hard timeout so a hung recovery fails the
# run instead of wedging it.
chaos:
	$(GO) test -race -count=1 -timeout 5m \
		./internal/chaos ./internal/core ./internal/client \
		./internal/portal ./internal/govern \
		./internal/server ./internal/wire

# Crash matrix: the durable-storage proof. Kills the WAL of a concurrently
# written workload at every record boundary and mid-record, inside
# half-synced commit groups included (clean truncation + torn half-synced
# writes, each also as a zero tail in a file whose length ran ahead, and
# a group landed out of order), recovers, and diffs against the
# committed-prefix oracle; plus a crash between a length step and its
# fsync, tamper classification, golden-dir recovery, the recovery/verifier
# lifecycle, and the replays that compile logged writes (EXECUTEd writes,
# those of values no literal spells — −2⁶³, ±Inf, NaN — included, a
# key-changing UPDATE, concurrent durable writers) — all under the race
# detector, uncached.
crash:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestCrash|TestMidLogBitFlip|TestGolden|TestRecoveryVerifier|TestQuarantinedRecovery|TestPrepareExecuteDurableReplay|TestExecuteEdgeValuesSurviveReopen|TestUpdateOntoExistingKeySurvivesReopen|TestConcurrentDurableWorkload' \
		./internal/core
	$(GO) test -race -count=1 -timeout 5m ./internal/wal ./internal/chaos

# Fuzz smoke: each decode-path fuzzer runs briefly over its committed
# seed corpus plus fresh mutations. The invariant under test: arbitrary
# disk, network or untrusted-memory bytes produce a typed error or a valid
# result, never a panic. FuzzWALTail holds WAL recovery to it behind a
# valid log: a zero run then fuzzed bytes recover the acked records or
# quarantine. FuzzShape is the statement-text one: what the plan
# cache assumes of two texts with one shape key, the lexer and Normalize
# round trips, and an EXECUTE's expansion — its bind slots, and its WAL
# text parsing back to the same values.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALHeaderDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALTail$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime 10s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzQueryDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzResultDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShape$$' -fuzztime 10s ./internal/sql

ci: build lint test allocs race flake chaos crash bench bench-smoke
