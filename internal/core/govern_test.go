package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridb/internal/client"
	"veridb/internal/govern"
	"veridb/internal/vmem"
)

// openGovern opens a DB with overload-protection knobs and registers
// cleanup. Tests that need durable storage set cfg.DataDir themselves.
func openGovern(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 99
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// seedBig creates table big and fills it with n rows.
func seedBig(t *testing.T, db *DB, n int) {
	t.Helper()
	exec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, val INT)`)
	var b strings.Builder
	b.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%d)", i, (i*7919)%n)
	}
	exec(t, db, b.String())
}

// TestStatementTimeoutCancelsSelect: with StatementTimeout configured, a
// SELECT that cannot finish inside the deadline fails with
// context.DeadlineExceeded instead of running unboundedly. A nanosecond
// timeout is already expired when the drain starts, so the failure is
// deterministic. Inserts still land (the write path runs to completion to
// stay atomic), which is also what lets this test seed its own table.
func TestStatementTimeoutCancelsSelect(t *testing.T) {
	db := openGovern(t, Config{StatementTimeout: time.Nanosecond, ExecBatchSize: 64})
	seedBig(t, db, 200)
	_, err := db.Execute(`SELECT * FROM big`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestCancelledContextStopsSelect: a caller-cancelled context propagates
// through ExecuteContext into the engine and surfaces as context.Canceled.
func TestCancelledContextStopsSelect(t *testing.T) {
	db := openGovern(t, Config{})
	seedBig(t, db, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecuteContext(ctx, "", `SELECT * FROM big`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	// The same statement succeeds on a live context: nothing was fenced.
	if _, err := db.ExecuteContext(context.Background(), "", `SELECT * FROM big`); err != nil {
		t.Fatalf("post-cancel statement: %v", err)
	}
}

// TestAdmissionShedsTypedOverload: with both slots of a two-slot gate
// held, the next statement is shed at once with a typed
// *govern.OverloadedError whose RetryAfter is 50ms per statement in
// flight, and the same statement is admitted once a slot frees.
func TestAdmissionShedsTypedOverload(t *testing.T) {
	db := openGovern(t, Config{MaxConcurrentStatements: 2})
	seedBig(t, db, 10)
	rel1, err := db.admit.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := db.admit.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	_, err = db.Execute(`SELECT * FROM big`)
	if !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var oe *govern.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("shed error not typed: %v", err)
	}
	if oe.RetryAfter != 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 100ms for two statements in flight", oe.RetryAfter)
	}
	if got := db.GovernStats().Admission.Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	rel1()
	if _, err := db.Execute(`SELECT * FROM big`); err != nil {
		t.Fatalf("post-release statement: %v", err)
	}
}

// TestWALFenceNotMaskedByAdmission: a write the full gate turns away
// while the WAL fence is tripped fails with ErrWALBroken — an integrity
// refusal the client must see — never with a retryable ErrOverloaded that
// would invite pointless retries against a fenced instance; an EXECUTE of
// a prepared write counts as a write. A read shed beside it is still an
// overload: reads keep serving on a fenced log.
func TestWALFenceNotMaskedByAdmission(t *testing.T) {
	db := openGovern(t, Config{DataDir: t.TempDir(), MaxConcurrentStatements: 1})
	exec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, val INT)`)
	exec(t, db, `PREPARE put AS INSERT INTO big VALUES (?, ?)`)
	// Trip the sticky WAL fence the way a failed append would.
	db.dur.fence(errors.New("injected append fault"))
	// Hold the only slot so every statement below is shed.
	release, err := db.admit.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, q := range []string{`INSERT INTO big VALUES (1, 1)`, `EXECUTE put (2, 2)`} {
		_, err := db.Execute(q)
		if !errors.Is(err, ErrWALBroken) {
			t.Fatalf("%s: want ErrWALBroken, got %v", q, err)
		}
		if errors.Is(err, govern.ErrOverloaded) {
			t.Fatalf("%s: fence masked as overload: %v", q, err)
		}
	}
	if _, err := db.Execute(`SELECT * FROM big`); !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("read: want ErrOverloaded, got %v", err)
	}
	if got := db.GovernStats().Admission.Shed; got != 3 {
		t.Fatalf("shed counter = %d, want 3", got)
	}
}

// TestSessionExpiryUnblocksVersionGC: an abandoned BEGIN SNAPSHOT pins the
// version reclamation floor; the reaper releases the pin, the next write
// reclaims the retired versions, and the client's next statement gets
// ErrSessionExpired exactly once before service resumes.
func TestSessionExpiryUnblocksVersionGC(t *testing.T) {
	db := openGovern(t, Config{})
	exec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, val INT)`)
	exec(t, db, `INSERT INTO big VALUES (0,0)`)
	if _, err := db.ExecuteSession("c1", `BEGIN SNAPSHOT`); err != nil {
		t.Fatal(err)
	}
	// Retire versions under the pin.
	for i := 1; i <= 5; i++ {
		exec(t, db, fmt.Sprintf(`UPDATE big SET val = %d WHERE id = 0`, i))
	}
	if pins := db.store.SnapshotPins(); pins != 1 {
		t.Fatalf("pins = %d, want 1", pins)
	}
	// Writers reclaim around the pin but keep the snapshot-visible
	// version: the pinned session still reads its original value.
	pinned, _, pinFloor := db.store.VersionStats()
	res, err := db.ExecuteSession("c1", `SELECT val FROM big WHERE id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("pinned snapshot read %v, want original 0", res.Rows)
	}
	// Reap with a zero idle allowance: every idle pinned session expires.
	time.Sleep(time.Millisecond)
	if n := db.reapIdleSessions(0); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	if pins := db.store.SnapshotPins(); pins != 0 {
		t.Fatalf("pins = %d after reap, want 0", pins)
	}
	exec(t, db, `UPDATE big SET val = 6 WHERE id = 0`)
	free, _, freeFloor := db.store.VersionStats()
	if free >= pinned {
		t.Fatalf("%d versions retained after the pin was released and a write, %d under it", free, pinned)
	}
	if freeFloor <= pinFloor {
		t.Fatalf("reclamation floor stuck at %d after reap (was %d)", freeFloor, pinFloor)
	}
	if got := db.GovernStats().SessionsExpired; got != 1 {
		t.Fatalf("SessionsExpired = %d, want 1", got)
	}
	// Expiry notice exactly once, then normal service.
	if _, err := db.ExecuteSession("c1", `SELECT * FROM big`); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("want ErrSessionExpired, got %v", err)
	}
	if _, err := db.ExecuteSession("c1", `SELECT * FROM big`); err != nil {
		t.Fatalf("second statement after expiry: %v", err)
	}
}

// TestSessionReaperRunsOnlyWhilePinned: an instance runs no reaper until
// a session pins, concurrent first pins start it, Close stops it, and a
// pin after Close starts none.
func TestSessionReaperRunsOnlyWhilePinned(t *testing.T) {
	db := openGovern(t, Config{})
	running := func() bool {
		db.reaperMu.Lock()
		defer db.reaperMu.Unlock()
		return db.reaperStop != nil
	}
	exec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, val INT)`)
	exec(t, db, `SELECT * FROM big`)
	if running() {
		t.Fatal("reaper running before any pin")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := db.ExecuteSession(id, `BEGIN SNAPSHOT`); err != nil {
				t.Error(err)
			}
		}(fmt.Sprintf("c%d", i))
	}
	wg.Wait()
	if !running() {
		t.Fatal("no reaper after BEGIN SNAPSHOT")
	}
	db.Close()
	if running() {
		t.Fatal("reaper running after Close")
	}
	if _, err := db.ExecuteSession("late", `BEGIN SNAPSHOT`); err != nil {
		t.Fatal(err)
	}
	if running() {
		t.Fatal("a pin after Close started a reaper")
	}
}

// TestMemBudgetExhaustionTyped: a statement whose materialisations would
// exceed the process budget is refused with a typed
// govern.ErrResourceExhausted instead of growing the heap, while writes
// (whose committed state is charged unconditionally) keep landing.
func TestMemBudgetExhaustionTyped(t *testing.T) {
	db := openGovern(t, Config{MemBudget: 8 << 10})
	seedBig(t, db, 1000)
	_, err := db.Execute(`SELECT * FROM big`)
	if !errors.Is(err, govern.ErrResourceExhausted) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
	if got := db.GovernStats().MemDenied; got < 1 {
		t.Fatalf("MemDenied = %d", got)
	}
	// Writes are never budget-refused: refusing the commit of an applied
	// statement would be worse than the memory it retains.
	if _, err := db.Execute(`INSERT INTO big VALUES (10000,1)`); err != nil {
		t.Fatalf("write past budget: %v", err)
	}
}

// TestCancelMidScanReleasesResources: repeatedly cancelling statements at
// arbitrary points mid-scan (sharded table, sort materialisation) leaks
// nothing — snapshot pins, reserved budget and goroutine count all return
// to their pre-storm baselines, and the instance still serves queries.
// The chaos CI job runs this under -race.
func TestCancelMidScanReleasesResources(t *testing.T) {
	db := openGovern(t, Config{TableShards: 4, ExecBatchSize: 64, MemBudget: 64 << 20})
	seedBig(t, db, 2000)
	baseMem := db.budget.Used()
	baseGoroutines := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		var ctx context.Context
		var cancel context.CancelFunc
		if i%5 == 0 {
			ctx, cancel = context.WithCancel(context.Background())
			cancel() // cancelled before the first batch
		} else {
			// Deadlines from 50µs to 200µs land at varying scan depths.
			ctx, cancel = context.WithTimeout(context.Background(), time.Duration(i%4+1)*50*time.Microsecond)
		}
		_, _ = db.ExecuteContext(ctx, "", `SELECT * FROM big ORDER BY val`)
		cancel()
	}
	if pins := db.store.SnapshotPins(); pins != 0 {
		t.Fatalf("leaked %d snapshot pins", pins)
	}
	if used := db.budget.Used(); used != baseMem {
		t.Fatalf("budget used %d, baseline %d: reservation leaked", used, baseMem)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= baseGoroutines {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutines %d > baseline %d after cancel storm", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res := exec(t, db, `SELECT * FROM big WHERE id = 5`)
	if len(res.Rows) != 1 {
		t.Fatalf("post-storm query rows = %d", len(res.Rows))
	}
}

// TestOverloadStormDrains is the overload-protection gate: eight point-
// query clients at four times the admission capacity, beside three
// pathological clients — a full sort under a 1 ms authenticated deadline,
// a session that pins snapshots and never commits, and a statement whose
// result outgrows the memory budget — for one second through the portal.
// Every delivered response must MAC-verify and every shed must be a typed
// govern.OverloadedError with a positive RetryAfter; each pathological
// client must trip its protection; after the storm drains, the budget
// holds the seed floor plus the replay windows and nothing else, no pin
// is held, and Close leaves no goroutine behind. make chaos runs it under
// the race detector.
func TestOverloadStormDrains(t *testing.T) {
	const rows, workers = 500, 8
	baseG := runtime.NumGoroutine()
	db, err := Open(Config{
		Seed:                    1,
		Memory:                  vmem.Config{Partitions: 16},
		PlanCacheSize:           128,
		StatementTimeout:        200 * time.Millisecond,
		MemBudget:               4 << 20,
		MaxConcurrentStatements: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.maxIdle = 50 * time.Millisecond
	seedBig(t, db, rows)
	// The seeded rows' version images are tracked, persistent memory: the
	// leak check is against this floor, not zero.
	floor := db.GovernStats().MemUsed
	clients := make([]*client.Client, workers+3)
	for i := range clients {
		id, key := fmt.Sprintf("w%d", i), []byte(fmt.Sprintf("overload-key-%02d", i))
		db.Enclave().ProvisionMACKey(id, key)
		clients[i] = client.New(id, key)
	}

	var done atomic.Bool
	var timeouts atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, len(clients))
	// call sends one signed request and returns the message of an
	// authenticated statement error ("" for a result or a shed) and whether
	// the request was shed. A shed client honours the RetryAfter hint, the
	// protocol's backpressure, before call returns.
	call := func(c *client.Client, query string, timeout time.Duration) (msg string, shed bool, err error) {
		req := c.NewRequestTimeout(query, timeout)
		resp, err := db.Portal().Serve(req)
		if err != nil {
			return "", false, fmt.Errorf("portal refused an authenticated request: %w", err)
		}
		verr := c.VerifyResponse(req, resp)
		var oe *govern.OverloadedError
		var se *client.ServerError
		switch {
		case verr == nil:
		case errors.As(verr, &oe):
			if oe.RetryAfter <= 0 {
				return "", true, fmt.Errorf("shed without a RetryAfter hint: %w", verr)
			}
			time.Sleep(min(oe.RetryAfter, 20*time.Millisecond))
			return "", true, nil
		case errors.As(verr, &se):
			return se.Msg, false, nil
		default:
			return "", false, fmt.Errorf("response failed verification: %w", verr)
		}
		return "", false, nil
	}
	loop := func(step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if err := step(i); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		c := clients[w]
		loop(func(i int) error {
			_, _, err := call(c, fmt.Sprintf(`SELECT val FROM big WHERE id = %d`, (w+13*i)%rows), 0)
			return err
		})
	}
	loop(func(int) error {
		msg, _, err := call(clients[workers], `SELECT * FROM big ORDER BY val`, time.Millisecond)
		if strings.Contains(msg, "deadline") || strings.Contains(msg, "cancel") {
			timeouts.Add(1)
		}
		return err
	})
	loop(func(int) error {
		// A shed BEGIN SNAPSHOT pins nothing, and neither does the one that
		// reports the previous pin's expiry: retry (call has waited out any
		// RetryAfter hint) until a snapshot pins, past the storm's end if
		// need be, and only then idle.
		for msg, shed := "", true; shed || msg != ""; {
			var err error
			if msg, shed, err = call(clients[workers+1], `BEGIN SNAPSHOT`, 0); err != nil {
				return err
			}
		}
		time.Sleep(100 * time.Millisecond) // idle past maxIdle: the reaper must unpin
		return nil
	})
	hog := fmt.Sprintf(`SELECT id, '%s' FROM big`, strings.Repeat("x", 16<<10))
	loop(func(int) error {
		_, _, err := call(clients[workers+2], hog, 0)
		time.Sleep(5 * time.Millisecond)
		return err
	})
	time.Sleep(time.Second)
	done.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	gs := db.GovernStats()
	for deadline := time.Now().Add(3 * time.Second); gs.Admission.InFlight != 0 ||
		gs.SnapshotPins != 0 || gs.MemUsed != gs.ResponseCache.Bytes+floor; gs = db.GovernStats() {
		if time.Now().After(deadline) {
			t.Fatalf("storm did not drain: inflight=%d pins=%d mem=%d cache=%d floor=%d",
				gs.Admission.InFlight, gs.SnapshotPins, gs.MemUsed, gs.ResponseCache.Bytes, floor)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if timeouts.Load() == 0 || gs.SessionsExpired == 0 || gs.MemDenied == 0 {
		t.Fatalf("a protection never tripped: timeouts=%d sessions expired=%d budget denials=%d",
			timeouts.Load(), gs.SessionsExpired, gs.MemDenied)
	}
	db.Close()
	for i := 0; runtime.NumGoroutine() > baseG+2; i++ {
		if i >= 50 {
			t.Fatalf("goroutines %d after Close, baseline %d", runtime.NumGoroutine(), baseG)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
