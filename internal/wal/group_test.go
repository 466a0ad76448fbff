package wal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// formatStatements is the fixed statement list behind the format golden
// and the parent-written fixture (its first twelve entries).
func formatStatements() []string {
	stmts := []string{`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`}
	for i := 0; i < 40; i++ {
		switch {
		case i%11 == 10:
			stmts = append(stmts, fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, i-5))
		case i%7 == 6:
			stmts = append(stmts, fmt.Sprintf(`UPDATE kv SET v = 'u%d' WHERE k = %d`, i, i-1))
		default:
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'v%d')`, i, i))
		}
	}
	return stmts
}

// TestLogFormatGolden: the format did not move. With the sealed key and
// the header pre-seeded (key bytes 0..31, checkpoint 0, base 0) and
// formatStatements appended one at a time, the log file's SHA-256 is the
// constant captured from the serial one-write-one-fsync-per-record path of
// the commit before the commit group became the only append path — a group
// of one is that append, byte for byte.
func TestLogFormatGolden(t *testing.T) {
	const golden = "bd20ce31e363bfe07299e5e22d5e803d781d2a2826262c2e91552026b572fe0c"
	dir := t.TempDir()
	key := make([]byte, keySize)
	for i := range key {
		key[i] = byte(i)
	}
	if err := os.WriteFile(filepath.Join(dir, keyFile), key, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 0), encodeWALHeader(key, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _ := openT(t, dir)
	for _, s := range formatStatements() {
		if _, err := l.Append(RecStmt, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	path := l.Path()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != golden {
		t.Fatalf("log file SHA-256 %s, want %s — the on-disk format moved", got, golden)
	}
}

// TestParentWrittenLogOpens: testdata/parent-serial is a data directory
// written by the parent commit's serial append path (its own random sealed
// key, the first twelve formatStatements). It must open, replay every
// record, and accept appends that a second recovery then sees.
func TestParentWrittenLogOpens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{keyFile, filepath.Base(walPath("", 0))} {
		buf, err := os.ReadFile(filepath.Join("testdata", "parent-serial", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := formatStatements()[:12]
	l, rec := openT(t, dir)
	if len(rec.Tail) != len(want) || rec.TornBytes != 0 {
		t.Fatalf("replayed %d records (%d torn bytes), want %d and none", len(rec.Tail), rec.TornBytes, len(want))
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i) || r.Type != RecStmt || string(r.Payload) != want[i] {
			t.Fatalf("record %d = %+v, want %q", i, r, want[i])
		}
	}
	if seq, err := l.Append(RecStmt, []byte("appended by this build")); err != nil || seq != uint64(len(want)) {
		t.Fatalf("append onto the parent's log: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := openT(t, dir)
	defer l2.Close()
	if len(rec2.Tail) != len(want)+1 || string(rec2.Tail[len(want)].Payload) != "appended by this build" {
		t.Fatalf("second recovery saw %d records", len(rec2.Tail))
	}
}

// waitEnqueued spins until the log has handed out n sequence numbers —
// NextSeq advances at Enqueue, before any flush.
func waitEnqueued(t *testing.T, l *Log, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.NextSeq() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records enqueued", l.NextSeq(), n)
		}
		runtime.Gosched()
	}
}

// TestFsyncIsTheWindow: while the first group's fsync is blocked, every
// later enqueuer joins the one open group behind it, and releasing that
// fsync lets ONE further fsync put all of them on disk, in sequence
// order. Nothing but the predecessor's fsync decides the batch.
func TestFsyncIsTheWindow(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	var syncs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	l.SetSyncHook(func(f *os.File) error {
		if syncs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	})

	const later = 12
	var wg sync.WaitGroup
	acked := make([]uint64, 1+later)
	appendOne := func(w int) {
		defer wg.Done()
		seq, err := l.Append(RecStmt, []byte(fmt.Sprintf("writer-%d", w)))
		if err != nil {
			t.Errorf("writer %d: %v", w, err)
		}
		acked[w] = seq
	}
	wg.Add(1)
	go appendOne(0)
	<-entered // group one (one record) is inside its fsync
	for w := 1; w <= later; w++ {
		wg.Add(1)
		go appendOne(w)
	}
	waitEnqueued(t, l, 1+later)
	if n := syncs.Load(); n != 1 {
		t.Fatalf("%d fsyncs started while the first was still blocked", n)
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := syncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs for one blocked group and %d later writers, want 2", n, later)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Disk order is sequence order, and each writer's record sits at the
	// sequence number it was acked with.
	l2, rec := openT(t, dir)
	defer l2.Close()
	if len(rec.Tail) != 1+later {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), 1+later)
	}
	for w, seq := range acked {
		if r := rec.Tail[seq]; r.Seq != seq || string(r.Payload) != fmt.Sprintf("writer-%d", w) {
			t.Fatalf("writer %d acked seq %d, record there is %+v", w, seq, r)
		}
	}
}

// TestGroupOfOneDoesNotWait: a lone Append finds no fsync in flight, so it
// leads a group of one straight to disk — the sync hook has run by the
// time Append returns, once per record — and leaves nothing behind: no
// open group, no parked goroutine.
func TestGroupOfOneDoesNotWait(t *testing.T) {
	l, _ := openT(t, t.TempDir())
	defer l.Close()
	var syncs atomic.Int64
	l.SetSyncHook(func(f *os.File) error {
		syncs.Add(1)
		return f.Sync()
	})
	before := runtime.NumGoroutine()
	for i := int64(1); i <= 5; i++ {
		if _, err := l.Append(RecStmt, []byte("lone writer")); err != nil {
			t.Fatal(err)
		}
		if n := syncs.Load(); n != i {
			t.Fatalf("after append %d the sync hook had run %d times", i, n)
		}
	}
	l.mu.Lock()
	open := l.open
	l.mu.Unlock()
	if open != nil {
		t.Fatal("a group is still open after its only record was acked")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after lone appends, %d before", after, before)
	}
}

// TestConcurrentAppends: many concurrent appenders produce a log that
// replays to exactly the acked record set, in chain order, with strictly
// fewer fsyncs than records (the fsync models a device that takes 200µs,
// during which the other writers enqueue behind it).
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	var syncs atomic.Int64
	l.SetSyncHook(func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(200 * time.Microsecond)
		return f.Sync()
	})

	const workers, per = 8, 25
	var wg sync.WaitGroup
	acked := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append(RecStmt, []byte(fmt.Sprintf("stmt-%d-%d", w, i)))
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				acked[w] = append(acked[w], seq)
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := syncs.Load(); n >= workers*per {
		t.Fatalf("%d fsyncs for %d records — no batching", n, workers*per)
	}

	// Every worker's acks are unique and the replayed tail is the exact
	// acked set in sequence order.
	seen := map[uint64]bool{}
	for w := range acked {
		if len(acked[w]) != per {
			t.Fatalf("worker %d acked %d, want %d", w, len(acked[w]), per)
		}
		for _, s := range acked[w] {
			if seen[s] {
				t.Fatalf("sequence %d acked twice", s)
			}
			seen[s] = true
		}
	}
	l2, rec := openT(t, dir)
	defer l2.Close()
	if len(rec.Tail) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), workers*per)
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if rec.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rec.TornBytes)
	}
}

// TestFailedSyncFailsEveryWaiter: a failing group fsync must error every
// waiter of that group — and of the group that formed behind it — and
// fence the log before any of them returns: no caller may ack on top of a
// sync that did not happen. The first fsync (a group of one) is held until
// the followers have all joined the second group, then succeeds; the
// second group's fsync is held until one more writer has opened a third
// group, then fails; the third group chains past bytes that never reached
// disk and must fail without writing.
func TestFailedSyncFailsEveryWaiter(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	syncErr := errors.New("injected fsync failure")
	var syncs atomic.Int64
	entered := []chan struct{}{make(chan struct{}), make(chan struct{})}
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	l.SetSyncHook(func(f *os.File) error {
		n := syncs.Add(1)
		close(entered[n-1])
		<-release[n-1]
		if n == 1 {
			return f.Sync()
		}
		return syncErr
	})

	const followers = 6
	var wg sync.WaitGroup
	errs := make([]error, 2+followers)
	appendOne := func(w int) {
		defer wg.Done()
		_, errs[w] = l.Append(RecStmt, []byte(fmt.Sprintf("stmt-%d", w)))
	}
	wg.Add(1)
	go appendOne(0)
	<-entered[0]
	for w := 1; w <= followers; w++ {
		wg.Add(1)
		go appendOne(w)
	}
	waitEnqueued(t, l, 1+followers)
	close(release[0])
	<-entered[1] // the second group, all followers in it, is inside its fsync
	wg.Add(1)
	go appendOne(1 + followers)
	waitEnqueued(t, l, 2+followers)
	close(release[1])
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("the first group's fsync succeeded but its writer got %v", errs[0])
	}
	for w := 1; w <= 1+followers; w++ {
		if !errors.Is(errs[w], syncErr) {
			t.Fatalf("worker %d: %v, want the injected fsync failure", w, errs[w])
		}
	}
	if n := syncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs, want 2 (one held, one failed)", n)
	}
	// The log is fenced: later appends fail immediately, before any write.
	if _, err := l.Append(RecStmt, []byte("after")); err == nil {
		t.Fatal("append succeeded on a fenced log")
	}
	l.SetSyncHook(nil)
	if _, err := l.Append(RecStmt, []byte("still fenced")); err == nil {
		t.Fatal("fence lifted by restoring the sync hook")
	}
	if n := syncs.Load(); n != 2 {
		t.Fatalf("a fenced log still reached fsync (%d calls)", n)
	}
	l.Close()
}

// TestBoundariesMatchesAckedSizes: the structural scanner reproduces the
// per-record log ends a lone writer observes.
func TestBoundariesMatchesAckedSizes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	sizes := []int64{logEnd(l)}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(RecStmt, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, logEnd(l))
	}
	path := l.Path()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := Boundaries(buf)
	if len(got) != len(sizes) {
		t.Fatalf("Boundaries found %d offsets, want %d", len(got), len(sizes))
	}
	for i := range got {
		if got[i] != sizes[i] {
			t.Fatalf("boundary %d = %d, want %d", i, got[i], sizes[i])
		}
	}
	if !bytes.Equal(buf[:got[0]], buf[:walHeaderSize]) {
		t.Fatal("first boundary is not the header end")
	}
}
