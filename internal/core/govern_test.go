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

// TestAdmissionShedsTypedOverload: with one slot and no queue, a second
// concurrent statement is refused with a typed *govern.OverloadedError
// carrying a RetryAfter hint, and admission resumes once the slot frees.
func TestAdmissionShedsTypedOverload(t *testing.T) {
	db := openGovern(t, Config{
		MaxConcurrentStatements: 1,
		AdmissionQueueDepth:     0,
		AdmissionMaxWait:        5 * time.Millisecond,
	})
	seedBig(t, db, 10)
	release, err := db.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Execute(`SELECT * FROM big`)
	if !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var oe *govern.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("shed error not typed: %v", err)
	}
	if oe.RetryAfter < time.Millisecond {
		t.Fatalf("RetryAfter hint missing: %v", oe.RetryAfter)
	}
	if got := db.GovernStats().Admission.Shed; got < 1 {
		t.Fatalf("shed counter = %d", got)
	}
	release()
	if _, err := db.Execute(`SELECT * FROM big`); err != nil {
		t.Fatalf("post-release statement: %v", err)
	}
}

// TestWALFenceNotMaskedByAdmission: statements queued in admission while
// the WAL fence trips drain with ErrWALBroken — an integrity refusal the
// client must see — never with a retryable ErrOverloaded that would invite
// pointless retries against a fenced instance.
func TestWALFenceNotMaskedByAdmission(t *testing.T) {
	db := openGovern(t, Config{
		DataDir:                 t.TempDir(),
		MaxConcurrentStatements: 1,
		AdmissionQueueDepth:     8,
		AdmissionMaxWait:        5 * time.Second,
	})
	exec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, val INT)`)
	// Trip the sticky WAL fence the way a failed append would.
	db.dur.fence(errors.New("injected append fault"))
	// Hold the only slot so the writers below park in the queue.
	release, err := db.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Execute(fmt.Sprintf(`INSERT INTO big VALUES (%d,%d)`, i, i))
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for db.admit.Stats().Waiting < writers {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("writers never queued: %+v", db.admit.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrWALBroken) {
			t.Fatalf("writer %d: want ErrWALBroken, got %v", i, err)
		}
		if errors.Is(err, govern.ErrOverloaded) {
			t.Fatalf("writer %d: fence masked as overload: %v", i, err)
		}
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
// holds the seed floor plus the response cache and nothing else, no pin
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
		AdmissionQueueDepth:     8,
		AdmissionMaxWait:        time.Millisecond,
		SessionMaxIdle:          50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
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
	// authenticated statement error ("" for a result or a shed). A shed
	// client honours the RetryAfter hint, the protocol's backpressure.
	call := func(c *client.Client, query string, timeout time.Duration) (string, error) {
		req := c.NewRequestTimeout(query, timeout)
		resp, err := db.Portal().Serve(req)
		if err != nil {
			return "", fmt.Errorf("portal refused an authenticated request: %w", err)
		}
		verr := c.VerifyResponse(req, resp)
		var oe *govern.OverloadedError
		var se *client.ServerError
		switch {
		case verr == nil:
		case errors.As(verr, &oe):
			if oe.RetryAfter <= 0 {
				return "", fmt.Errorf("shed without a RetryAfter hint: %w", verr)
			}
			time.Sleep(min(oe.RetryAfter, 20*time.Millisecond))
		case errors.As(verr, &se):
			return se.Msg, nil
		default:
			return "", fmt.Errorf("response failed verification: %w", verr)
		}
		return "", nil
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
			_, err := call(c, fmt.Sprintf(`SELECT val FROM big WHERE id = %d`, (w+13*i)%rows), 0)
			return err
		})
	}
	loop(func(int) error {
		msg, err := call(clients[workers], `SELECT * FROM big ORDER BY val`, time.Millisecond)
		if strings.Contains(msg, "deadline") || strings.Contains(msg, "cancel") {
			timeouts.Add(1)
		}
		return err
	})
	loop(func(int) error {
		_, err := call(clients[workers+1], `BEGIN SNAPSHOT`, 0)
		time.Sleep(100 * time.Millisecond) // idle past SessionMaxIdle: the reaper must unpin
		return err
	})
	hog := fmt.Sprintf(`SELECT id, '%s' FROM big`, strings.Repeat("x", 16<<10))
	loop(func(int) error {
		_, err := call(clients[workers+2], hog, 0)
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
	for deadline := time.Now().Add(3 * time.Second); gs.Admission.InFlight != 0 || gs.Admission.Waiting != 0 ||
		gs.SnapshotPins != 0 || gs.MemUsed != gs.ResponseCache.Bytes+floor; gs = db.GovernStats() {
		if time.Now().After(deadline) {
			t.Fatalf("storm did not drain: inflight=%d waiting=%d pins=%d mem=%d cache=%d floor=%d",
				gs.Admission.InFlight, gs.Admission.Waiting, gs.SnapshotPins, gs.MemUsed, gs.ResponseCache.Bytes, floor)
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
