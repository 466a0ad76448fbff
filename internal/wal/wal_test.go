package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"veridb/internal/record"
)

// openT opens a log and fails the test on environmental errors.
func openT(t *testing.T, dir string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

// logEnd is the log's logical end: its header and every record logged.
// While the log is open the file's length runs past it in walChunk steps,
// so its size is not the end of the log.
func logEnd(l *Log) int64 {
	logged, _ := l.Sizes()
	return walHeaderSize + logged
}

// fileEnd is the logical end of the log file at path as its record
// boundaries give it: Boundaries stops at the zero tail.
func fileEnd(t *testing.T, path string) int64 {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := Boundaries(buf)
	if len(b) == 0 {
		t.Fatalf("%s holds no complete header", path)
	}
	return b[len(b)-1]
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir)
	if len(rec.Tail) != 0 || rec.Checkpoint != nil {
		t.Fatalf("fresh dir recovered %d records, %d tables", len(rec.Tail), len(rec.Checkpoint))
	}
	stmts := []string{"CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"}
	for i, s := range stmts {
		seq, err := l.Append(RecStmt, []byte(s))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openT(t, dir)
	defer l2.Close()
	if len(rec2.Tail) != len(stmts) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Tail), len(stmts))
	}
	for i, r := range rec2.Tail {
		if r.Seq != uint64(i) || r.Type != RecStmt || string(r.Payload) != stmts[i] {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if rec2.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rec2.TornBytes)
	}
	if got := l2.NextSeq(); got != uint64(len(stmts)) {
		t.Fatalf("NextSeq = %d, want %d", got, len(stmts))
	}
}

// TestLengthGrowsInSteps: the open log's file is a whole number of
// walChunk steps with zeros behind its records; a copy taken while it is
// open — a crash image — recovers every record with no torn bytes, and
// Close trims the file back to its records.
func TestLengthGrowsInSteps(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	payload := bytes.Repeat([]byte("p"), 64<<10)
	n := 0
	for logEnd(l) <= walChunk {
		if _, err := l.Append(RecStmt, payload); err != nil {
			t.Fatal(err)
		}
		n++
		st, err := os.Stat(l.Path())
		if err != nil {
			t.Fatal(err)
		}
		if want := (logEnd(l) + walChunk - 1) / walChunk * walChunk; st.Size() != want {
			t.Fatalf("after %d records ending at %d the file is %d bytes, want %d", n, logEnd(l), st.Size(), want)
		}
	}
	crash := t.TempDir()
	for _, name := range []string{keyFile, filepath.Base(l.Path())} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lc, rec := openT(t, crash)
	if len(rec.Tail) != n || rec.TornBytes != 0 {
		t.Fatalf("crash image recovered %d of %d records with %d torn bytes", len(rec.Tail), n, rec.TornBytes)
	}
	lc.Close()
	end := logEnd(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{l.Path(), walPath(crash, 0)} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != end {
			t.Fatalf("closed log %s is %d bytes, want %d", path, st.Size(), end)
		}
	}
}

// TestTornTailTruncation: cutting the log anywhere inside the last record
// recovers the full prefix before it and drops only the torn suffix, and
// appends afterwards continue the chain cleanly.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	var sizes []int64
	for i := 0; i < 5; i++ {
		if _, err := l.Append(RecStmt, []byte("stmt payload with some length")); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, logEnd(l))
	}
	path := l.Path()
	l.Close()

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every cut from "just after record 3" to "just before record 5
	// completes" must recover exactly 4 records... and cuts inside record
	// 4's extent recover 3, etc. Sweep every byte boundary.
	for cut := int64(walHeaderSize); cut <= sizes[len(sizes)-1]; cut++ {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openT(t, dir)
		want := 0
		for _, s := range sizes {
			if cut >= s {
				want++
			}
		}
		if len(rec.Tail) != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(rec.Tail), want)
		}
		// The torn suffix must be gone from disk so new appends start at a
		// clean chain boundary.
		if _, err := l2.Append(RecStmt, []byte("after crash")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		l2.Close()
		l3, rec3 := openT(t, dir)
		if len(rec3.Tail) != want+1 {
			t.Fatalf("cut at %d: second recovery got %d records, want %d", cut, len(rec3.Tail), want+1)
		}
		l3.Close()
	}
}

// TestMidLogTamperQuarantines: any bit flip with intact records behind it
// must be classified tamper, never silently truncated.
func TestMidLogTamperQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := l.Append(RecStmt, []byte("statement number x")); err != nil {
			t.Fatal(err)
		}
	}
	path := l.Path()
	firstRecordEnd := logEnd(l) / 4 // well inside the first half of the log
	l.Close()

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[firstRecordEnd] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir)
	if !errors.Is(err, ErrTamper) {
		t.Fatalf("mid-log flip: got %v, want ErrTamper", err)
	}
}

// TestHeaderTamperQuarantines: the header MAC binds checkpoint ID and
// base sequence; flipping any header byte is tamper.
func TestHeaderTamperQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("x"))
	path := l.Path()
	l.Close()
	buf, _ := os.ReadFile(path)
	buf[8] ^= 0xFF // inside the checkpoint-ID field
	os.WriteFile(path, buf, 0o644)
	_, _, err := Open(dir)
	if !errors.Is(err, ErrTamper) {
		t.Fatalf("header flip: got %v, want ErrTamper", err)
	}
}

// TestSealedKeyTamper: a modified or missing sealed key makes the state
// unverifiable — tamper, not fallback.
func TestSealedKeyTamper(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("x"))
	l.Close()

	keyPath := filepath.Join(dir, keyFile)
	key, _ := os.ReadFile(keyPath)
	key[0] ^= 0xFF
	os.WriteFile(keyPath, key, 0o644)
	if _, _, err := Open(dir); !errors.Is(err, ErrTamper) {
		t.Fatalf("flipped key: got %v, want ErrTamper", err)
	}
}

// TestWALDeletionQuarantines: deleting the only WAL of an initialised
// directory is a wipe attempt, not a crash artifact.
func TestWALDeletionQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("x"))
	path := l.Path()
	l.Close()
	os.Remove(path)
	if _, _, err := Open(dir); !errors.Is(err, ErrTamper) {
		t.Fatalf("deleted WAL: got %v, want ErrTamper", err)
	}
}

func testImage() *TableImage {
	return &TableImage{
		Name: "kv",
		Columns: []record.Column{
			{Name: "k", Type: record.TypeInt},
			{Name: "v", Type: record.TypeText},
		},
		PrimaryKey:   0,
		ChainColumns: []int{1},
		Rows: []record.Tuple{
			{record.Int(1), record.Text("one")},
			{record.Int(2), record.Text("two")},
		},
	}
}

// TestCheckpointRotation: a checkpoint captures the images, rotates the
// WAL, retires the old generation, and recovery loads segments plus the
// post-checkpoint tail only.
func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("pre-checkpoint 1"))
	l.Append(RecStmt, []byte("pre-checkpoint 2"))
	oldWAL := l.Path()
	if err := l.Checkpoint([]*TableImage{testImage()}); err != nil {
		t.Fatal(err)
	}
	if l.CheckpointID() != 1 {
		t.Fatalf("checkpoint ID = %d", l.CheckpointID())
	}
	if _, err := os.Stat(oldWAL); !os.IsNotExist(err) {
		t.Fatalf("old WAL still present after rotation: %v", err)
	}
	if _, err := l.Append(RecStmt, []byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.CheckpointID != 1 || len(rec.Checkpoint) != 1 {
		t.Fatalf("recovered ckpt %d with %d tables", rec.CheckpointID, len(rec.Checkpoint))
	}
	img := rec.Checkpoint[0]
	if img.Name != "kv" || len(img.Rows) != 2 || len(img.Columns) != 2 || img.ChainColumns[0] != 1 {
		t.Fatalf("recovered image %+v", img)
	}
	if len(rec.Tail) != 1 || string(rec.Tail[0].Payload) != "post-checkpoint" {
		t.Fatalf("recovered tail %+v", rec.Tail)
	}
	// Sequence numbers continue across the rotation.
	if rec.Tail[0].Seq != 2 {
		t.Fatalf("post-checkpoint record has seq %d, want 2", rec.Tail[0].Seq)
	}
}

// TestSizesCountLogAndImage: Sizes reports the record bytes in the current
// generation's WAL (its records' extent minus the header; the open file's
// zero tail is not counted) and the bytes of its
// segments, the same after a reopen as on the live log; a checkpoint
// restarts the log count.
func TestSizesCountLogAndImage(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	check := func(l *Log, image int64) {
		t.Helper()
		end := fileEnd(t, l.Path())
		if logged, img := l.Sizes(); logged != end-walHeaderSize || img != image {
			t.Fatalf("Sizes() = (%d, %d), want (%d, %d)", logged, img, end-walHeaderSize, image)
		}
	}
	l.Append(RecStmt, []byte("pre-checkpoint 1"))
	l.Append(RecStmt, []byte("pre-checkpoint 2"))
	check(l, 0)
	if err := l.Checkpoint([]*TableImage{testImage()}); err != nil {
		t.Fatal(err)
	}
	seg, err := os.Stat(segmentPath(dir, 1, "kv"))
	if err != nil {
		t.Fatal(err)
	}
	check(l, seg.Size())
	l.Append(RecStmt, []byte("post-checkpoint"))
	check(l, seg.Size())
	l.Close()
	l2, _ := openT(t, dir)
	defer l2.Close()
	check(l2, seg.Size())
}

// TestSegmentTamperQuarantines: flipping any byte of a segment breaks the
// manifest's MAC over it.
func TestSegmentTamperQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	if err := l.Checkpoint([]*TableImage{testImage()}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := segmentPath(dir, 1, "kv")
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(buf) / 2, len(buf) - 1} {
		tampered := append([]byte(nil), buf...)
		tampered[off] ^= 0x10
		os.WriteFile(seg, tampered, 0o644)
		if _, _, err := Open(dir); !errors.Is(err, ErrTamper) {
			t.Fatalf("segment flip at %d: got %v, want ErrTamper", off, err)
		}
	}
	os.WriteFile(seg, buf, 0o644)
	l2, _ := openT(t, dir) // pristine bytes restore service
	l2.Close()
}

// TestManifestTornFallsBack: a crash mid-manifest-write falls back to the
// previous checkpoint generation; a MAC-invalid complete manifest
// quarantines instead.
func TestManifestTornFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("gen0 record"))
	if err := l.Checkpoint([]*TableImage{testImage()}); err != nil {
		t.Fatal(err)
	}
	l.Append(RecStmt, []byte("gen1 record"))
	l.Close()

	// Simulate checkpoint 2 crashing mid-manifest: segments (maybe) and a
	// truncated manifest exist, wal-2 does not, generation 1 still there.
	full := encodeManifest(&Manifest{CheckpointID: 2, BaseSeq: 9}, readKey(t, dir))
	os.WriteFile(manifestPath(dir, 2), full[:len(full)-7], 0o644)

	l2, rec := openT(t, dir)
	if rec.CheckpointID != 1 || len(rec.Tail) != 1 || string(rec.Tail[0].Payload) != "gen1 record" {
		t.Fatalf("torn newest manifest: recovered ckpt %d tail %+v", rec.CheckpointID, rec.Tail)
	}
	l2.Close()

	// A complete manifest with a bad MAC is tamper, no fallback.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0x01
	os.WriteFile(manifestPath(dir, 2), bad, 0o644)
	if _, _, err := Open(dir); !errors.Is(err, ErrTamper) {
		t.Fatalf("bad-MAC manifest: got %v, want ErrTamper", err)
	}
}

// TestCheckpointCrashBeforeWALCreate: manifest committed but the rotated
// WAL never created — recovery admits the new checkpoint with an empty
// tail (the old WAL's records are all inside the segments).
func TestCheckpointCrashBeforeWALCreate(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("captured by checkpoint"))
	if err := l.Checkpoint([]*TableImage{testImage()}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Rewind to "crash between manifest write and wal-1 creation": delete
	// wal-1, restore wal-0 (its deletion hadn't happened yet either).
	os.Remove(walPath(dir, 1))
	os.WriteFile(walPath(dir, 0), encodeWALHeader(readKey(t, dir), 0, 0), 0o644)

	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.CheckpointID != 1 || len(rec.Tail) != 0 {
		t.Fatalf("recovered ckpt %d with %d tail records, want ckpt 1, empty tail", rec.CheckpointID, len(rec.Tail))
	}
}

func readKey(t *testing.T, dir string) []byte {
	t.Helper()
	key, err := os.ReadFile(filepath.Join(dir, keyFile))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSpliceAcrossLogsQuarantines: moving an authentic record from one
// database's log into another's breaks the chain (different keys), and
// moving a record within one log breaks prevMAC chaining.
func TestSpliceAcrossLogsQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	l.Append(RecStmt, []byte("first"))
	end1 := logEnd(l)
	l.Append(RecStmt, []byte("second"))
	path := l.Path()
	l.Close()

	buf, _ := os.ReadFile(path)
	rec1 := append([]byte(nil), buf[walHeaderSize:end1]...)
	// Duplicate record 1 after record 2: authentic bytes, wrong position.
	spliced := append(append([]byte(nil), buf...), rec1...)
	os.WriteFile(path, spliced, 0o644)
	// The duplicate sits at EOF with a chain-invalid MAC, so positional
	// classification may call it torn (drop it) — stricter tamper is also
	// fine. What is NOT fine is the duplicate entering the replay tail.
	l2, rec, err := Open(dir)
	if errors.Is(err, ErrTamper) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Tail) != 2 {
		t.Fatalf("spliced log replayed %d records, want 2", len(rec.Tail))
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}

	// Splice a duplicate in the MIDDLE (authentic record 1 twice, then
	// record 2): now there are intact-looking bytes behind the break, and
	// the verdict must be tamper.
	mid := append([]byte(nil), buf[:end1]...)
	mid = append(mid, rec1...)
	mid = append(mid, buf[end1:]...)
	os.WriteFile(path, mid, 0o644)
	if _, _, err := Open(dir); !errors.Is(err, ErrTamper) {
		t.Fatalf("mid-log splice: got %v, want ErrTamper", err)
	}
}
