GO ?= go

.PHONY: build loc vet lint test race flake bench bench-scan bench-query bench-wal bench-mvcc bench-overload bench-wire chaos crash fuzz ci

build:
	$(GO) build ./...

# The size every simplicity PR quotes: non-test Go lines outside
# benchmark/ (and outside its git-ignored build directory).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

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

# The verification pipeline is the concurrency-heavy part of the tree; the
# race detector must stay green with multi-worker scanning enabled.
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
# blocked fsync — and the two tests of a fenced-then-recovered client and a
# retransmit timer parked behind a shed, fifty times each under the race
# detector.
flake:
	$(GO) test -race -count=50 -timeout 10m \
		-run 'TestVerifierLifecycleNoLeak|TestSupervisorFailoverEndToEnd|TestTamperDetectedUnderConcurrentVerifyAll|TestVerifyAllReturnsAlarmRaisedByBackgroundPass|TestVerifyAllOnIdleMemoryWithPassInFlight|TestQuarantineRaisedDuringExecutionIsFlagged|TestConnectionLevelRefusals|TestPipelineSurfacesConnectionRefusal|TestBinaryAbruptDisconnectLeaksNothing|TestDrainBesideAcceptLoop|TestPipelineDuplicateShedIsNotARollback|TestPipelineThroughChaosConn|TestFsyncIsTheWindow|TestRunFaultRecoverySmall|TestPipelineStaleRetransmitTimerIsIgnored' \
		./internal/core ./internal/vmem ./internal/portal ./internal/server ./internal/client ./internal/wal ./internal/bench

bench:
	$(GO) test -bench=BenchmarkVerifyScaling -benchtime=1x -run=^$$ .

# The verified scan row: ns/row and allocs/row of a 2 000-row range scan
# over a lineitem-shaped table. The allocation half is also a plain test
# (TestScanRowAllocs, at most 3 per row), so `make test` gates it; counts
# are the same on any host, which the timing smokes below are not.
bench-scan:
	$(GO) test -run '^$$' -bench '^BenchmarkScanRow$$' -benchtime 200x ./internal/storage

# Query-execution smoke: a tiny batch-capacity sweep proving the query
# subcommand runs end-to-end and rows stay capacity-invariant. Real
# measurements use the defaults: veridb-bench query.
bench-query:
	$(GO) run ./cmd/veridb-bench query -query-rows 2000 -batch-sizes 1,64,256 -query-json ""

# Durability smoke: a small WAL workload through all three durability
# modes plus the concurrent-writer sweep (one row per writer count),
# proving the wal subcommand runs end-to-end. Real measurements use the defaults:
# veridb-bench wal.
bench-wal:
	$(GO) run ./cmd/veridb-bench wal -statements 300 -checkpoint-every 100 -wal-json ""

# MVCC snapshot-read smoke: a short writer-retention run with the
# concurrent snapshot reader asserting repeat-scan bit-identity, proving
# the mvcc subcommand runs end-to-end. Real measurements use the
# defaults: veridb-bench mvcc.
bench-mvcc:
	$(GO) run ./cmd/veridb-bench mvcc -warehouses 8 -seconds 1 -mvcc-json ""

# Overload-protection smoke: a short shed/timeout/abandonment storm at 4x
# concurrency. The bench itself hard-fails on any untyped shed, drain
# stall, leaked pin/goroutine or unaccounted post-drain memory, so this
# doubles as a leak regression gate. Real measurements use the defaults:
# veridb-bench overload.
bench-overload:
	$(GO) run ./cmd/veridb-bench overload -overload-rows 500 -seconds 1 -overload-json ""

# Wire-protocol smoke: a short closed-loop sweep of the in-flight window
# over one real socket. The bench itself hard-fails on any MAC-verification
# failure or post-drain goroutine leak, so this doubles as a regression
# gate for the pipelined server path. Real measurements use the defaults:
# veridb-bench serve.
bench-wire:
	$(GO) run ./cmd/veridb-bench serve -wire-rows 500 -wire-ops 300 -inflights 1,16 -wire-json ""

# Fault-injection suite: the chaos injector, quarantine/failover paths in
# core, the client pipeline's retry policy, the portal response cache, and
# the end-to-end fault-recovery bench — all under the race detector,
# uncached, with a hard timeout so a hung failover fails the run instead
# of wedging it.
chaos:
	$(GO) test -race -count=1 -timeout 5m \
		./internal/chaos ./internal/core ./internal/client \
		./internal/portal ./internal/bench ./internal/govern \
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

ci: build lint test race flake chaos crash bench-query bench-wal bench-mvcc bench-overload bench-wire
