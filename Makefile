GO ?= go

.PHONY: build loc knobs vet lint test race flake bench bench-smoke soak chaos crash fuzz ci

build:
	$(GO) build ./...

# The size every simplicity PR quotes: non-test Go lines outside
# benchmark/ (and outside its git-ignored build directory).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# The public surface every simplicity PR quotes: the exported fields of
# veridb.Config, core.Config and vmem.Config (counted from go doc's source
# view), and the flags veridb-server defines.
CONFIG_FIELDS = awk '/^type Config struct/ {f = 1; next} f && /^}/ {exit} f && /^\t[A-Z][A-Za-z0-9]* / {n++} END {print n}'
knobs:
	@printf 'veridb.Config fields: '; $(GO) doc -u -src . Config | $(CONFIG_FIELDS)
	@printf 'core.Config fields:   '; $(GO) doc -u -src ./internal/core Config | $(CONFIG_FIELDS)
	@printf 'vmem.Config fields:   '; $(GO) doc -u -src ./internal/vmem Config | $(CONFIG_FIELDS)
	@printf 'veridb-server flags:  '; grep -c 'flag\.\(Bool\|Int\|Int64\|String\|Duration\|Var\)(' cmd/veridb-server/main.go

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
# kind, and the two tests of a fenced-then-recovered client and a
# retransmit timer parked behind a shed, fifty times each under the race
# detector. The bounded-version-state test drives 25 000 TPC-C
# transactions (about a minute under the race detector), so it runs three
# times.
flake:
	$(GO) test -race -count=50 -timeout 10m \
		-run 'TestVerifierLifecycleNoLeak|TestSupervisorFailoverEndToEnd|TestTamperDetectedUnderConcurrentVerifyAll|TestVerifyAllReturnsAlarmRaisedByBackgroundPass|TestVerifyAllOnIdleMemoryWithPassInFlight|TestQuarantineRaisedDuringExecutionIsFlagged|TestConnectionLevelRefusals|TestPipelineSurfacesConnectionRefusal|TestBinaryAbruptDisconnectLeaksNothing|TestDrainBesideAcceptLoop|TestPipelineDuplicateShedIsNotARollback|TestPipelineThroughChaosConn|TestFsyncIsTheWindow|TestFaultRecoveryEveryKind|TestPipelineStaleRetransmitTimerIsIgnored' \
		./internal/core ./internal/vmem ./internal/portal ./internal/server ./internal/client ./internal/wal
	$(GO) test -race -count=3 -timeout 10m -run 'TestVersionStateBoundedWithoutPins|TestVersionGCReclaims' ./internal/storage

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

# Fault-injection suite: the chaos injector, quarantine/failover paths in
# core (the containment trial of every fault kind and the overload storm
# with its post-drain leak checks among them), the client pipeline's retry
# policy, and the portal response cache — all under the race detector,
# uncached, with a hard timeout so a hung failover fails the run instead
# of wedging it.
chaos:
	$(GO) test -race -count=1 -timeout 5m \
		./internal/chaos ./internal/core ./internal/client \
		./internal/portal ./internal/govern \
		./internal/server ./internal/wire

# Crash matrix: the durable-storage proof. Kills the WAL of a concurrently
# written workload at every record boundary and mid-record, inside
# half-synced commit groups included (clean truncation + torn half-synced
# writes), recovers, and diffs against the committed-prefix oracle; plus
# tamper classification, golden-dir recovery, and the recovery/verifier
# lifecycle — all under the race detector, uncached.
crash:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestCrash|TestMidLogBitFlip|TestGolden|TestRecoveryVerifier|TestQuarantinedRecovery' \
		./internal/core
	$(GO) test -race -count=1 -timeout 5m ./internal/wal ./internal/chaos

# Fuzz smoke: each decode-path fuzzer runs briefly over its committed
# seed corpus plus fresh mutations. The invariant under test: arbitrary
# disk, network or untrusted-memory bytes produce a typed error or a valid
# result, never a panic. FuzzShape is the statement-text one: what the plan
# cache assumes of two texts with one shape key, and the lexer, Normalize,
# Render and BindParams round trips.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALHeaderDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzManifestDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime 10s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzQueryDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzResultDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShape$$' -fuzztime 10s ./internal/sql

ci: build lint test race flake chaos crash bench bench-smoke
