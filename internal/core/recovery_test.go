package core

// Golden-file recovery and recovery/verifier lifecycle regressions.
//
// The golden test recovers a pre-built data directory committed under
// testdata/ — checkpoint segments plus a WAL tail, byte-for-byte as a
// past version of the code wrote them — and pins the recovered state to
// a constant. It is the cross-version compatibility lock: a change to
// the record format, the MAC personals or the replay order that still
// round-trips against itself will fail here, where a same-binary
// round-trip test cannot notice. Regenerate (deliberately!) with:
//
//	VERIDB_UPDATE_GOLDEN=1 go test -run TestGenerateGoldenDataDir ./internal/core
//
// and update the pinned constants from the test's output.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"veridb/internal/chaos"
)

const (
	goldenDir = "testdata/durable-golden"
	// goldenSeed seeds the enclave PRF, making the replayed version
	// history — and with it the resident checksum — deterministic.
	goldenSeed = 42
	// goldenStatements is the workload length baked into the directory.
	goldenStatements = 25
	// goldenChecksumAfterRecovery pins the resident checksum after
	// recovering the committed directory and running one VerifyAll scan.
	// It depends on the set-hash PRF (HMAC-SHA-256) but the directory's
	// bytes do not: the WAL MAC is a separate key and construction.
	goldenChecksumAfterRecovery = "5e7e2342b1037dd8"
)

func TestGoldenRecovery(t *testing.T) {
	if _, err := os.Stat(goldenDir); err != nil {
		t.Fatalf("golden data dir missing (run TestGenerateGoldenDataDir with VERIDB_UPDATE_GOLDEN=1): %v", err)
	}
	// Recover a copy: recovery truncates torn tails in place and appends
	// would dirty the committed bytes.
	work := filepath.Join(t.TempDir(), "golden")
	if err := chaos.CopyDir(goldenDir, work); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Seed: goldenSeed, DataDir: work})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if qerr := db.QuarantineError(); qerr != nil {
		t.Fatalf("golden recovery quarantined: %v", qerr)
	}
	if got := db.WALNextSeq(); got != goldenStatements {
		t.Fatalf("recovered WAL seq %d, want %d", got, goldenStatements)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if got := fmt.Sprintf("%v", db.Memory().ResidentChecksum()); got != goldenChecksumAfterRecovery {
		t.Fatalf("recovered resident checksum %s, want pinned %s", got, goldenChecksumAfterRecovery)
	}
	_, states := crashWorkload(goldenStatements)
	if got := tableRows(t, db); !sameRows(got, states[goldenStatements]) {
		t.Fatalf("recovered rows %v, want %v", got, states[goldenStatements])
	}
}

// TestGenerateGoldenDataDir rebuilds testdata/durable-golden. Guarded:
// regenerating silently would defeat the test's purpose.
func TestGenerateGoldenDataDir(t *testing.T) {
	if os.Getenv("VERIDB_UPDATE_GOLDEN") == "" {
		t.Skip("set VERIDB_UPDATE_GOLDEN=1 to regenerate the golden data dir")
	}
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stmts, _ := crashWorkload(goldenStatements)
	db, err := Open(Config{Seed: goldenSeed, DataDir: goldenDir})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Close()

	// Recover a copy and print the value to pin.
	check, err := Open(Config{Seed: goldenSeed, DataDir: mustCopy(t, goldenDir)})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	if err := check.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
	t.Logf("pin goldenChecksumAfterRecovery = %q", fmt.Sprintf("%v", check.Memory().ResidentChecksum()))
}

func mustCopy(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "copy")
	if err := chaos.CopyDir(src, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRecoveryVerifierLifecycle: the background scanner must not observe
// the half-built image while WAL replay is in flight — Open starts it
// only after recovery passes the VerifyAll admission gate — and Close
// after a durable open leaks nothing.
func TestRecoveryVerifierLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	stmts, _ := crashWorkload(20)

	for cycle := 0; cycle < 3; cycle++ {
		db, err := Open(Config{Seed: goldenSeed, DataDir: dir, VerifyEveryOps: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !db.Memory().VerifierRunning() {
			t.Fatal("verifier not running after clean durable open")
		}
		if cycle == 0 {
			for _, s := range stmts {
				if _, err := db.Execute(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if qerr := db.QuarantineError(); qerr != nil {
			t.Fatalf("cycle %d quarantined: %v", cycle, qerr)
		}
		db.Close()
		if db.Memory().VerifierRunning() {
			t.Fatal("verifier still running after Close")
		}
	}
	waitGoroutines(t, base)
}

// TestQuarantinedRecoveryLifecycle: recovering a tampered directory must
// quarantine without ever starting the background verifier (nothing to
// scan that could be trusted) and without leaking goroutines; statements
// stay fenced.
func TestQuarantinedRecoveryLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	stmts, _ := crashWorkload(20)
	boundaries, walName := runDurableWorkload(t, dir, Config{Seed: goldenSeed}, stmts)

	mid := boundaries[0] + (boundaries[len(boundaries)-1]-boundaries[0])/3
	if err := chaos.FlipBit(filepath.Join(dir, walName), mid, 6); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Seed: goldenSeed, DataDir: dir, VerifyEveryOps: 4})
	if err != nil {
		t.Fatalf("tampered open should quarantine, not error: %v", err)
	}
	if db.Memory().VerifierRunning() {
		t.Fatal("verifier running on a quarantined recovery")
	}
	if qerr := db.QuarantineError(); qerr == nil {
		t.Fatal("tampered recovery not quarantined")
	}
	if _, err := db.Execute(`SELECT k FROM kv`); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("statement on quarantined recovery: %v", err)
	}
	db.Close()
	waitGoroutines(t, base)
}
