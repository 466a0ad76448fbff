package core

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want (scheduler teardown is asynchronous), failing after two seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d > %d\n%s",
		runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
}

// TestVerifierLifecycleNoLeak: opening a DB with a background verifier
// and closing it — or quarantining it — returns the process to its
// baseline goroutine count. Close is idempotent and safe to race with
// quarantine entry (both paths stop the background verifier exactly once).
func TestVerifierLifecycleNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	// Plain open/close cycles.
	for i := 0; i < 3; i++ {
		db, err := Open(Config{Seed: uint64(i + 1), VerifyEveryOps: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !db.Memory().VerifierRunning() {
			t.Fatal("verifier not running after Open")
		}
		seedKV(t, db, 4)
		db.Close()
		if db.Memory().VerifierRunning() {
			t.Fatal("verifier still running after Close")
		}
		db.Close() // idempotent
	}
	waitGoroutines(t, base)

	// Quarantine entry stops the pool without Close.
	db, err := Open(Config{Seed: 50, VerifyEveryOps: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db, 8)
	if err := tamperFirstRecord(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Memory().VerifyAll(); err == nil {
		t.Fatal("tamper not detected")
	}
	if err := db.QuarantineError(); err == nil {
		t.Fatal("no quarantine after alarm")
	}
	if db.Memory().VerifierRunning() {
		t.Fatal("verifier still running after quarantine")
	}
	waitGoroutines(t, base)
	db.Close() // still safe after quarantine already stopped the pool

	// Concurrent quarantine entry and Close race for the same shutdown.
	db2, err := Open(Config{Seed: 51, VerifyEveryOps: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedKV(t, db2, 8)
	if err := tamperFirstRecord(db2); err != nil {
		t.Fatal(err)
	}
	if err := db2.Memory().VerifyAll(); err == nil {
		t.Fatal("tamper not detected")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				db2.Close()
			} else {
				db2.QuarantineError()
			}
		}(i)
	}
	wg.Wait()
	if db2.Memory().VerifierRunning() {
		t.Fatal("verifier survived concurrent Close/quarantine")
	}
	waitGoroutines(t, base)
}
