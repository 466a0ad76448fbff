package core

// Durable-path regression tests at the statement layer: the ack barrier
// (no Execute returns before its commit group's fsync), the sticky write
// fence on a failed group fsync, end-to-end recovery of a concurrently
// written workload, and what Health shows of a fenced WAL or a failed
// checkpoint. BenchmarkDurableWriters is the commit group's writer sweep.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridb/internal/chaos"
	"veridb/internal/wal"
)

// TestConcurrentDurableWorkload: concurrent writers on a durable database
// all ack, and a reopen recovers every acked row with a clean verification
// pass.
func TestConcurrentDurableWorkload(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := w*per + i
				if _, err := db.Execute(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'row-%d')`, k, k)); err != nil {
					t.Errorf("worker %d insert %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	db.Close()

	re, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if qerr := re.QuarantineError(); qerr != nil {
		t.Fatalf("recovered DB quarantined: %v", qerr)
	}
	// CREATE + every acked INSERT must be in the log.
	if got := re.WALNextSeq(); got != uint64(1+workers*per) {
		t.Fatalf("recovered WAL seq %d, want %d", got, 1+workers*per)
	}
	res, err := re.Execute(`SELECT k FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != workers*per {
		t.Fatalf("recovered %d rows, want %d", len(res.Rows), workers*per)
	}
	if err := re.Memory().VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after recovery: %v", err)
	}
}

// TestFailedFsyncFencesWrites: when a group's fsync fails, every waiter
// of that group gets the error — none of them ack — and the database
// trips the sticky ErrWALBroken fence: later writes are refused before
// touching the WAL, while reads keep serving, and Health.WALError tells
// the operator why.
func TestFailedFsyncFencesWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Execute(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	if h := db.Health(); h.WALError != "" || h.CheckpointError != "" {
		t.Fatalf("healthy durable database reports WALError %q, CheckpointError %q", h.WALError, h.CheckpointError)
	}
	injected := errors.New("injected device failure")
	db.dur.log.SetSyncHook(chaos.FailingSync(0, injected))

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = db.Execute(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'x')`, w))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Fatalf("worker %d acked a write whose group fsync failed", w)
		}
		if !errors.Is(err, ErrWALBroken) {
			t.Fatalf("worker %d error %v does not wrap ErrWALBroken", w, err)
		}
	}

	// The fence is sticky: later writes are refused outright, even after
	// the device "recovers" — durability of the tail is already in doubt.
	db.dur.log.SetSyncHook(nil)
	if _, err := db.Execute(`INSERT INTO kv VALUES (99, 'after')`); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("write after fence returned %v, want ErrWALBroken", err)
	}
	// Reads still serve: the fence protects durability, not availability.
	if _, err := db.Execute(`SELECT k FROM kv`); err != nil {
		t.Fatalf("read on a write-fenced database: %v", err)
	}
	if h := db.Health(); !strings.Contains(h.WALError, injected.Error()) {
		t.Fatalf("Health.WALError = %q on a fenced WAL, want the injected failure", h.WALError)
	}
}

// TestFailedCheckpointVisibleInHealth: a checkpoint that fails (a
// directory squats on its segment path, so the segment cannot be created)
// leaves the statements before it acked and durable, and
// Health.CheckpointError carries the failure until a later checkpoint
// succeeds.
func TestFailedCheckpointVisibleInHealth(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	squatter := filepath.Join(dir, "ckpt-0000000000000001-kv.seg")
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`,
		`INSERT INTO kv VALUES (1, 'a')`,
		`INSERT INTO kv VALUES (2, 'b')`,
	}
	for _, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with a directory on its segment path")
	}
	h := db.Health()
	if !strings.Contains(h.CheckpointError, filepath.Base(squatter)) {
		t.Fatalf("Health.CheckpointError = %q after a checkpoint that could not write %s", h.CheckpointError, filepath.Base(squatter))
	}
	if h.WALError != "" || h.Quarantined {
		t.Fatalf("a failed checkpoint fenced the instance: %+v", h)
	}
	if got := db.dur.log.CheckpointID(); got != 0 {
		t.Fatalf("checkpoint generation %d after a failed checkpoint", got)
	}

	// All three statements are in the old WAL: a crash image taken now
	// recovers them.
	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(t.TempDir(), "image")
	if err := chaos.CopyDir(dir, image); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Seed: crashSeed, DataDir: image})
	if err != nil {
		t.Fatal(err)
	}
	if qerr := re.QuarantineError(); qerr != nil {
		t.Fatalf("crash image quarantined: %v", qerr)
	}
	if got, rows := re.WALNextSeq(), tableRows(t, re); got != 3 || !sameRows(rows, []string{"1|a", "2|b"}) {
		t.Fatalf("crash image recovered seq %d rows %v", got, rows)
	}
	re.Close()

	// Three statements later the next checkpoint finds the path free,
	// succeeds, and clears the error.
	for k := 3; k <= 5; k++ {
		if _, err := db.Execute(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'x')`, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.CheckpointError != "" {
		t.Fatalf("Health.CheckpointError = %q after a checkpoint succeeded", h.CheckpointError)
	}
	if got := db.dur.log.CheckpointID(); got != 1 {
		t.Fatalf("checkpoint generation %d, want 1", got)
	}
}

// TestCheckpointDue pins the automatic checkpoint rule: the log since the
// last checkpoint must reach the floor, and past it the image size.
func TestCheckpointDue(t *testing.T) {
	const floor = checkpointFloor
	for _, c := range []struct {
		logged, image int64
		want          bool
	}{
		{0, 0, false},
		{floor - 1, 0, false},
		{floor, 0, true},
		{floor - 1, floor - 1, false},
		{floor, floor - 1, true},
		{floor, floor + 1, false},
		{3 * floor, 3*floor - 1, true},
		{3 * floor, 3*floor + 1, false},
	} {
		if got := checkpointDue(c.logged, c.image); got != c.want {
			t.Errorf("checkpointDue(logged %d, image %d) = %v, want %v", c.logged, c.image, got, c.want)
		}
	}
}

// TestLogCheckpointsItself crosses the real checkpoint floor at the zero
// Config: wide rows inserted and deleted again grow the log while the
// image stays small, so the statement that takes the log past the floor
// checkpoints. Afterwards only the newest generation's files remain, and
// recovery loads its segments plus a tail of just the statements since.
func TestLogCheckpointsItself(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Execute(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	const rows, width = 100, 6000
	var insert strings.Builder
	insert.WriteString(`INSERT INTO kv VALUES `)
	for k := 0; k < rows; k++ {
		if k > 0 {
			insert.WriteString(", ")
		}
		fmt.Fprintf(&insert, "(%d, '%s')", k, strings.Repeat(string(rune('a'+k%26)), width))
	}
	batches := 0
	for db.dur.log.CheckpointID() == 0 {
		if batches++; batches > 2*checkpointFloor/(rows*width) {
			t.Fatalf("no checkpoint after %d batches of %d wide rows", batches, rows)
		}
		for _, s := range []string{insert.String(), `DELETE FROM kv WHERE k >= 0`} {
			if _, err := db.Execute(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if logged, image := db.dur.log.Sizes(); logged > 2*rows*width || image == 0 {
		t.Fatalf("after the checkpoint: %d bytes logged, %d image bytes", logged, image)
	}
	// The checkpoint's scans must not leave a snapshot pinned: one would
	// hold the version reclamation floor for the rest of the run.
	if pins := db.store.SnapshotPins(); pins != 0 {
		t.Fatalf("%d snapshot pins held after the checkpoint", pins)
	}
	tail := []string{`INSERT INTO kv VALUES (1, 'x')`, `INSERT INTO kv VALUES (2, 'y')`}
	for _, s := range tail {
		if _, err := db.Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"ckpt-0000000000000001-kv.seg", "ckpt-0000000000000001.manifest", "sealed.key", "wal-0000000000000001.log"}
	if !slices.Equal(names, want) {
		t.Fatalf("data dir holds %v, want only the newest generation %v", names, want)
	}

	image := filepath.Join(t.TempDir(), "image")
	if err := chaos.CopyDir(dir, image); err != nil {
		t.Fatal(err)
	}
	log, rec, err := wal.Open(image)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if rec.CheckpointID != 1 || len(rec.Checkpoint) != 1 || len(rec.Tail) > len(tail)+1 {
		t.Fatalf("recovery: checkpoint %d with %d segments and a %d-record tail", rec.CheckpointID, len(rec.Checkpoint), len(rec.Tail))
	}
	re, err := Open(Config{Seed: crashSeed, DataDir: image})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if qerr := re.QuarantineError(); qerr != nil {
		t.Fatalf("recovered image quarantined: %v", qerr)
	}
	if rows := tableRows(t, re); !sameRows(rows, tableRows(t, db)) {
		t.Fatalf("recovered rows %v differ from the live ones", rows)
	}
}

// TestHealthDoesNotWaitForWrites: Health is where an operator looks when
// writes misbehave, so it must answer while a durable statement holds the
// apply mutex (a statement can hold it for up to StatementTimeout).
func TestHealthDoesNotWaitForWrites(t *testing.T) {
	db, err := Open(Config{Seed: crashSeed, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.dur.fence(errors.New("injected"))
	db.dur.mu.Lock()
	defer db.dur.mu.Unlock()
	got := make(chan Health, 1)
	go func() { got <- db.Health() }()
	select {
	case h := <-got:
		if !strings.Contains(h.WALError, "injected") {
			t.Fatalf("WALError %q, want the fence", h.WALError)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Health blocked behind the durable apply mutex")
	}
}

// BenchmarkDurableWriters spreads b.N durable INSERTs over N concurrent
// writers on one data directory; each ack waits for its commit group's
// fsync, so throughput gains come from sharing the fsync, never from
// acking early. ns/op is the inverse of aggregate throughput; p99-us is
// the per-statement ack tail.
func BenchmarkDurableWriters(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := Open(Config{Seed: crashSeed, DataDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			exec(b, db, `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`)
			var next atomic.Int64
			lats := make([][]time.Duration, writers)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := range lats {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := next.Add(1); k <= int64(b.N); k = next.Add(1) {
						t0 := time.Now()
						if _, err := db.Execute(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%08d')`, k, k)); err != nil {
							b.Error(err)
							return
						}
						lats[w] = append(lats[w], time.Since(t0))
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			all := slices.Concat(lats...)
			slices.Sort(all)
			b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99-us")
		})
	}
}

// TestUpdateOntoExistingKeySurvivesReopen: an UPDATE moving a row onto a
// primary key another row holds fails, is never logged, and must leave
// the live database as it was, so the answers before and after a reopen
// agree.
func TestUpdateOntoExistingKeySurvivesReopen(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Config{Seed: crashSeed, DataDir: dir, TableShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				`CREATE TABLE t (id INT PRIMARY KEY, v INT, INDEX(v))`,
				`INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`,
			} {
				if _, err := db.Execute(q); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Execute(`UPDATE t SET id = 2 WHERE id = 1`); err == nil {
				t.Fatal("UPDATE onto an existing primary key succeeded")
			}
			answers := func(db *DB) string {
				var out []string
				for _, q := range []string{`SELECT * FROM t`, `SELECT * FROM t WHERE id = 1`, `SELECT id FROM t WHERE v = 10`} {
					res, err := db.Execute(q)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, fmt.Sprint(res.Rows))
				}
				return strings.Join(out, " ")
			}
			live := answers(db)
			if want := "[[1 10] [2 20] [3 30]] [[1 10]] [[1]]"; live != want {
				t.Fatalf("live answers after the failed UPDATE: %s, want %s", live, want)
			}
			db.Close()
			re, err := Open(Config{Seed: crashSeed, DataDir: dir, TableShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := answers(re); got != live {
				t.Fatalf("answers after reopen: %s, live before: %s", got, live)
			}
			if err := re.Memory().VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
