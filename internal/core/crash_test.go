package core

// The crash-point matrix: the headline proof that the authenticated WAL
// delivers exactly-the-committed-prefix recovery. Concurrent writers run
// scripted statements against a durable database; then, for every record
// boundary and every mid-record offset, a copy of the data directory is
// damaged the way a crash would damage it (clean truncation, torn
// half-synced tail, and both again inside a file whose length ran ahead
// of its records: a zero tail, a garbled half then zeros) and recovered.
// The recovered image must equal an in-memory oracle that executed
// exactly the committed prefix — same rows, same WAL sequence number,
// same resident RSWS checksum (the oracle shares the deterministic Seed,
// so protected-op histories coincide) — or, for torn writes whose garbage
// is indistinguishable from tamper, land in quarantine. Zero acked-write
// loss, zero unacked resurrection, nothing in between.
//
// One write+fsync lands a whole commit group, so per-ack log ends do not
// fall on record boundaries and the acked order is not the on-disk order.
// Both are derived from the log itself: wal.Boundaries scans the pristine
// file's length prefixes for record extents, and the committed statement
// order is the record order recovered from a copy (wal.Open may truncate
// torn tails in place, so the pristine file is never opened directly).
// Kill points inside a half-synced group are the interior record
// boundaries and midpoints of that group's extent.
//
// The log writes each group in place below a file length that grows in
// steps, so the log's end is not the file's size: the harness reads it
// from the record boundaries (walEnd), and the zero forms give a cut copy
// the length step a live log has. An in-place write may also land a later
// block of the last group before an earlier one; that image must recover
// the prefix before the hole or quarantine.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridb/internal/chaos"
	"veridb/internal/wal"
)

const crashSeed = 42

const createKV = `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`

// rowOp is what one workload statement does to the plain-Go row oracle.
type rowOp struct {
	key int
	val string // the row's v after the statement; unused for a delete
	del bool
}

// writerStatements scripts one writer: n deterministic, always-succeeding
// statements over the writer's own key range — inserts, updates of its
// newest live key, deletes of its oldest — with the row effect of each
// filed in ops under the statement's text (texts are unique across
// writers, so a log's record order can be folded back into rows).
func writerStatements(w, n int, ops map[string]rowOp) []string {
	var stmts []string
	var live []int
	next := w * 10000
	for i := 1; i <= n; i++ {
		var s string
		var op rowOp
		switch {
		case i%11 == 0 && len(live) > 2:
			op = rowOp{key: live[0], del: true}
			live = live[1:]
			s = fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, op.key)
		case i%7 == 0 && len(live) > 0:
			op = rowOp{key: live[len(live)-1], val: fmt.Sprintf("u%d", i)}
			s = fmt.Sprintf(`UPDATE kv SET v = '%s' WHERE k = %d`, op.val, op.key)
		default:
			op = rowOp{key: next, val: fmt.Sprintf("v%d", next)}
			s = fmt.Sprintf(`INSERT INTO kv VALUES (%d, '%s')`, op.key, op.val)
			live = append(live, next)
			next++
		}
		ops[s] = op
		stmts = append(stmts, s)
	}
	return stmts
}

// rowStates is the committed-prefix oracle for rows: states[k] is kv's
// sorted "k|v" row set after exactly the first k of stmts (createKV, then
// writer statements in any interleaving) — nil before the CREATE TABLE
// lands. Keeping the row oracle in plain Go matters: reading rows out of
// a protected database is itself a protected operation that bumps RSWS
// versions, so a database oracle could not be queried without perturbing
// its own checksum.
func rowStates(stmts []string, ops map[string]rowOp) [][]string {
	states := [][]string{nil, {}} // before and after CREATE TABLE
	table := map[int]string{}
	for _, s := range stmts[1:] {
		op, ok := ops[s]
		if !ok {
			panic(fmt.Sprintf("statement %q is not part of the workload", s))
		}
		if op.del {
			delete(table, op.key)
		} else {
			table[op.key] = op.val
		}
		snap := make([]string, 0, len(table))
		for k, v := range table {
			snap = append(snap, fmt.Sprintf("%d|%s", k, v))
		}
		sort.Strings(snap)
		states = append(states, snap)
	}
	return states
}

// crashWorkload is the one-writer workload: createKV followed by n-1
// writer statements, and its row oracle.
func crashWorkload(n int) (stmts []string, states [][]string) {
	ops := map[string]rowOp{}
	stmts = append([]string{createKV}, writerStatements(0, n-1, ops)...)
	return stmts, rowStates(stmts, ops)
}

// tableRows renders kv's rows sorted, or nil if the table doesn't exist
// yet (prefixes shorter than the CREATE TABLE).
func tableRows(t *testing.T, db *DB) []string {
	t.Helper()
	res, err := db.Execute(`SELECT k, v FROM kv`)
	if err != nil {
		if strings.Contains(err.Error(), "kv") { // unknown table
			return nil
		}
		t.Fatalf("SELECT: %v", err)
	}
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracle replays workload prefixes into a memory-only database with the
// same deterministic seed, advancing monotonically so a sorted sweep of
// cut points reuses one instance. It exists only to produce reference
// resident checksums; it is never queried (protected reads would bump
// RSWS versions and perturb the checksum). VerifyAll interleaving is
// checksum-neutral, so running it once per prefix matches a recovery
// that ran it once at the end.
type oracle struct {
	db    *DB
	stmts []string
	done  int
	sums  map[int]string
}

func newOracle(t *testing.T, stmts []string) *oracle {
	db, err := Open(Config{Seed: crashSeed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return &oracle{db: db, stmts: stmts, sums: map[int]string{}}
}

// checksumAt returns the resident checksum after exactly k statements
// and a VerifyAll scan.
func (o *oracle) checksumAt(t *testing.T, k int) string {
	t.Helper()
	if sum, ok := o.sums[k]; ok {
		return sum
	}
	if k < o.done {
		t.Fatalf("oracle cannot rewind: at %d, asked for %d", o.done, k)
	}
	for ; o.done < k; o.done++ {
		if _, err := o.db.Execute(o.stmts[o.done]); err != nil {
			t.Fatalf("oracle statement %d (%s): %v", o.done, o.stmts[o.done], err)
		}
	}
	if err := o.db.Memory().VerifyAll(); err != nil {
		t.Fatalf("oracle VerifyAll at %d: %v", k, err)
	}
	sum := fmt.Sprintf("%v", o.db.Memory().ResidentChecksum())
	o.sums[k] = sum
	return sum
}

// walEnd is the logical end of the WAL file at path: the offset past its
// last complete record. While the log is open its file runs past that in
// zero bytes, since the length grows in steps; wal.Boundaries stops at
// the first zero length field.
func walEnd(t *testing.T, path string) int64 {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := wal.Boundaries(buf)
	if len(b) == 0 {
		t.Fatalf("%s holds no complete WAL header", filepath.Base(path))
	}
	return b[len(b)-1]
}

// runDurableWorkload executes stmts against a fresh durable database in
// dir and returns the WAL's logical end after every statement:
// boundaries[k] is the log's end once exactly k statements are committed
// (boundaries[0] is the header).
func runDurableWorkload(t *testing.T, dir string, cfg Config, stmts []string) (boundaries []int64, walName string) {
	t.Helper()
	cfg.DataDir = dir
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	boundaries = append(boundaries, walEnd(t, db.WALPath()))
	for i, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			t.Fatalf("statement %d (%s): %v", i, s, err)
		}
		boundaries = append(boundaries, walEnd(t, db.WALPath()))
	}
	return boundaries, filepath.Base(db.WALPath())
}

// crashStep is the zero tail the zero crash forms give a cut copy's WAL:
// the length a live log's file runs ahead of its records (one length
// step; any length reads the same).
const crashStep = 1 << 20

// Crash forms: how a cut copy of the WAL is damaged at a cut offset.
const (
	cutTruncate = "truncate"  // chaos.TruncateAt
	cutTear     = "tear"      // chaos.TornWriteAt
	cutZero     = "zero"      // chaos.ZeroFrom, in a file a step long
	cutTearZero = "tear-zero" // chaos.TornZeroAt, in a file a step long
	// cutOutOfOrder zeroes from the cut on but keeps a later extent of
	// the same half-synced group: its later block landed, an earlier one
	// did not.
	cutOutOfOrder = "out-of-order"
)

// crashCut damages the WAL at path with one crash form at off; keep is
// the landed extent of an out-of-order cut.
func crashCut(path string, off int64, kind string, keep [2]int64) error {
	switch kind {
	case cutTruncate:
		return chaos.TruncateAt(path, off)
	case cutTear:
		return chaos.TornWriteAt(path, off)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(path, (int64(len(buf))/crashStep+1)*crashStep); err != nil {
		return err
	}
	switch kind {
	case cutZero:
		return chaos.ZeroFrom(path, off)
	case cutTearZero:
		return chaos.TornZeroAt(path, off)
	case cutOutOfOrder:
		if err := chaos.ZeroFrom(path, off); err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(buf[keep[0]:keep[1]], keep[0]); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return fmt.Errorf("unknown crash form %q", kind)
}

// crashExact reports whether a crash form must recover the committed
// prefix exactly; the others may also quarantine, since their garbage can
// be indistinguishable from tamper.
func crashExact(kind string) bool { return kind == cutTruncate || kind == cutZero }

// committedPrefix maps a cut offset to the number of fully-synced
// statements below it.
func committedPrefix(boundaries []int64, cut int64) int {
	k := 0
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= cut {
			k = i
		}
	}
	return k
}

// recoverAndCheck recovers the damaged directory and asserts the exact
// committed prefix: k statements applied, WAL sequence k, resident
// checksum equal to the seed-matched oracle's, rows equal to the plain-Go
// row oracle. allowQuarantine admits the tamper verdict (torn-write
// garbage is sometimes indistinguishable from an adversarial edit);
// recovery-with-wrong-state is never admitted.
func recoverAndCheck(t *testing.T, dir string, o *oracle, wantRows []string, k int, allowQuarantine bool, label string) {
	t.Helper()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer db.Close()
	if qerr := db.QuarantineError(); qerr != nil {
		if !allowQuarantine {
			t.Fatalf("%s: unexpected quarantine: %v", label, qerr)
		}
		// Quarantine must fence statements, not serve damaged state.
		if _, err := db.Execute(`SELECT k, v FROM kv`); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("%s: quarantined DB served a query (err=%v)", label, err)
		}
		return
	}
	if got := db.WALNextSeq(); got != uint64(k) {
		t.Fatalf("%s: recovered WAL seq %d, want %d", label, got, k)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatalf("%s: VerifyAll after recovery: %v", label, err)
	}
	// Checksum before rows: the SELECT below performs protected reads
	// that bump RSWS versions and change the resident checksum.
	got, want := fmt.Sprintf("%v", db.Memory().ResidentChecksum()), o.checksumAt(t, k)
	if got != want {
		t.Fatalf("%s: resident checksum %s, oracle %s", label, got, want)
	}
	if gotRows := tableRows(t, db); !sameRows(gotRows, wantRows) {
		t.Fatalf("%s: recovered rows %v, want %v", label, gotRows, wantRows)
	}
}

// TestCrashPointMatrix kills the log of a concurrently written workload
// at every record boundary and every mid-record offset — inside
// half-synced commit groups included — by clean truncation and by torn
// half-synced writes, each in a file cut to the point and in one whose
// length ran a step ahead (zeros from the point on), and requires exact
// committed-prefix recovery (or quarantine, for tears only) at each of
// the ~1 200 points. At ~200 more, every record but the last lands with
// a hole out of order: the second half of the record and everything
// after the next one read back as zero, the next one as written — the
// committed prefix or quarantine.
func TestCrashPointMatrix(t *testing.T) {
	writers, per := 4, 50
	if testing.Short() {
		writers, per = 2, 20
	}
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")

	db, err := Open(Config{Seed: crashSeed, DataDir: pristine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(createKV); err != nil {
		t.Fatal(err)
	}
	// The fsync models a device that takes 100µs, so the other writers
	// enqueue behind it and the log holds multi-record groups to cut into.
	var syncs atomic.Int64
	db.dur.log.SetSyncHook(func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(100 * time.Microsecond)
		return f.Sync()
	})
	ops := map[string]rowOp{}
	scripts := make([][]string, writers)
	for w := range scripts {
		scripts[w] = writerStatements(w, per, ops)
	}
	var wg sync.WaitGroup
	for w := range scripts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, s := range scripts[w] {
				if _, err := db.Execute(s); err != nil {
					t.Errorf("writer %d statement %d (%s): %v", w, i, s, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := syncs.Load(); n >= int64(writers*per) {
		t.Fatalf("%d fsyncs for %d statements: no commit group held two records, nothing to half-sync", n, writers*per)
	}
	walName := filepath.Base(db.WALPath())
	db.Close()

	// Committed statement order = WAL record order, read from a copy.
	extract := filepath.Join(base, "extract")
	if err := chaos.CopyDir(pristine, extract); err != nil {
		t.Fatal(err)
	}
	l, rec, err := wal.Open(extract)
	if err != nil {
		t.Fatal(err)
	}
	stmts := make([]string, 0, len(rec.Tail))
	for _, r := range rec.Tail {
		stmts = append(stmts, string(r.Payload))
	}
	l.Close()
	if len(stmts) != 1+writers*per {
		t.Fatalf("pristine log holds %d records, want %d", len(stmts), 1+writers*per)
	}

	states := rowStates(stmts, ops)

	// Record extents from the structural scanner, not from ack-time file
	// sizes (those land mid-group).
	buf, err := os.ReadFile(filepath.Join(pristine, walName))
	if err != nil {
		t.Fatal(err)
	}
	boundaries := wal.Boundaries(buf)
	if len(boundaries) != len(stmts)+1 {
		t.Fatalf("scanner found %d boundaries, want %d", len(boundaries), len(stmts)+1)
	}

	// Cut points: each boundary, and the midpoint of each record's extent,
	// each in its plain and its zero-tail form.
	type cutPoint struct {
		off  int64
		kind string
		keep [2]int64 // cutOutOfOrder's landed extent
	}
	var cuts []cutPoint
	for i := range boundaries {
		for _, kind := range []string{cutTruncate, cutTear, cutZero, cutTearZero} {
			cuts = append(cuts, cutPoint{off: boundaries[i], kind: kind})
		}
		if i+1 == len(boundaries) {
			continue
		}
		mid := (boundaries[i] + boundaries[i+1]) / 2
		cuts = append(cuts, cutPoint{off: mid, kind: cutTruncate}, cutPoint{off: mid, kind: cutZero})
		if i+2 < len(boundaries) {
			cuts = append(cuts, cutPoint{off: mid, kind: cutOutOfOrder, keep: [2]int64{boundaries[i+1], boundaries[i+2]}})
		}
	}
	// Header damage: a crash during the very first fsync. The header is
	// synced before the file first grows, so it has no zero-tail form.
	cuts = append(cuts, cutPoint{off: 0, kind: cutTruncate}, cutPoint{off: boundaries[0] / 2, kind: cutTruncate})
	sort.SliceStable(cuts, func(i, j int) bool { return cuts[i].off < cuts[j].off })

	o := newOracle(t, stmts)
	work := filepath.Join(base, "work")
	for _, c := range cuts {
		label := fmt.Sprintf("%s@%d", c.kind, c.off)
		os.RemoveAll(work)
		if err := chaos.CopyDir(pristine, work); err != nil {
			t.Fatal(err)
		}
		if err := crashCut(filepath.Join(work, walName), c.off, c.kind, c.keep); err != nil {
			t.Fatal(err)
		}
		k := committedPrefix(boundaries, c.off)
		recoverAndCheck(t, work, o, states[k], k, !crashExact(c.kind), label)
	}
}

// TestCrashRecoveredDBKeepsWorking: after a mid-record crash the
// recovered instance accepts new writes, and a second recovery sees them
// appended cleanly after the surviving prefix.
func TestCrashRecoveredDBKeepsWorking(t *testing.T) {
	stmts, _ := crashWorkload(30)
	dir := t.TempDir()
	boundaries, walName := runDurableWorkload(t, dir, Config{Seed: crashSeed}, stmts)

	cut := (boundaries[20] + boundaries[21]) / 2
	if err := chaos.TruncateAt(filepath.Join(dir, walName), cut); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if qerr := db.QuarantineError(); qerr != nil {
		t.Fatalf("clean truncation quarantined: %v", qerr)
	}
	if _, err := db.Execute(`INSERT INTO kv VALUES (9001, 'post-crash')`); err != nil {
		t.Fatal(err)
	}
	wantSeq := db.WALNextSeq()
	rows := tableRows(t, db)
	db.Close()

	db2, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if qerr := db2.QuarantineError(); qerr != nil {
		t.Fatalf("second recovery quarantined: %v", qerr)
	}
	if got := db2.WALNextSeq(); got != wantSeq {
		t.Fatalf("second recovery seq %d, want %d", got, wantSeq)
	}
	if got := tableRows(t, db2); !sameRows(got, rows) {
		t.Fatalf("second recovery rows %v, want %v", got, rows)
	}
}

// TestCrashPointMatrixWithCheckpoints reruns the boundary sweep over the
// final WAL generation of a workload that checkpointed several times, by
// clean truncation, by a zero tail, and by a garbled half then zeros
// (which may quarantine).
// Segment restore rebuilds rows through the protected write interfaces
// with a fresh version history, so the assertion is rows + VerifyAll +
// sequence continuity rather than checksum equality.
func TestCrashPointMatrixWithCheckpoints(t *testing.T) {
	stmts, states := crashWorkload(60)
	cfg := Config{Seed: crashSeed}

	pristine := filepath.Join(t.TempDir(), "pristine")
	cfg.DataDir = pristine
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// boundary bookkeeping per statement: WAL file and its end after ack.
	type mark struct {
		wal  string
		size int64
	}
	marks := []mark{}
	for i, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			t.Fatalf("statement %d: %v", i, s)
		}
		if (i+1)%17 == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		marks = append(marks, mark{filepath.Base(db.WALPath()), walEnd(t, db.WALPath())})
	}
	finalName := filepath.Base(db.WALPath())
	db.Close()

	work := filepath.Join(t.TempDir(), "work")
	checkCut := func(cut int64, k int, kind, label string) {
		os.RemoveAll(work)
		if err := chaos.CopyDir(pristine, work); err != nil {
			t.Fatal(err)
		}
		if err := crashCut(filepath.Join(work, finalName), cut, kind, [2]int64{}); err != nil {
			t.Fatal(err)
		}
		rdb, err := Open(Config{Seed: crashSeed, DataDir: work})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer rdb.Close()
		if qerr := rdb.QuarantineError(); qerr != nil {
			if crashExact(kind) {
				t.Fatalf("%s: quarantined: %v", label, qerr)
			}
			return
		}
		if got := rdb.WALNextSeq(); got != uint64(k) {
			t.Fatalf("%s: seq %d, want %d", label, got, k)
		}
		if err := rdb.Memory().VerifyAll(); err != nil {
			t.Fatalf("%s: VerifyAll: %v", label, err)
		}
		if got := tableRows(t, rdb); !sameRows(got, states[k]) {
			t.Fatalf("%s: rows %v, want %v", label, got, states[k])
		}
	}
	check := func(cut int64, k int, label string) {
		for _, kind := range []string{cutTruncate, cutZero, cutTearZero} {
			checkCut(cut, k, kind, kind+"-"+label)
		}
	}

	// Sweep every boundary inside the final generation, plus one
	// mid-record point per record.
	prev := int64(-1)
	for i, m := range marks {
		if m.wal != finalName {
			continue
		}
		check(m.size, i+1, fmt.Sprintf("ckpt-boundary@%d", m.size))
		if prev >= 0 && m.size > prev {
			mid := (prev + m.size) / 2
			// committed prefix at mid is i (statement i+1 is torn).
			check(mid, i, fmt.Sprintf("ckpt-mid@%d", mid))
		}
		prev = m.size
	}
}

// TestCrashBetweenStepAndSync: a crash after a commit group grew the WAL
// file by a length step and was written into it, but before its fsync
// returned. The image is captured inside that fsync for the first two
// steps and recovered three ways: the length change never reached the
// disk (cut back to the old length), it did but the group's bytes did not
// (zeros from the group's offset), and both did. The first two recover
// exactly the acked statements, the third those and the unacked group;
// none quarantines.
func TestCrashBetweenStepAndSync(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "live")
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	walName := filepath.Base(db.WALPath())

	// One writer, so each group is one statement and runs its fsync on
	// this goroutine; kilobyte values cross a step in about a thousand.
	stmts := []string{createKV}
	rows := []map[int]string{nil, {}}
	for i := 0; len(stmts) < 2500; i++ {
		k, v := i%10, fmt.Sprintf("%04d%s", i, strings.Repeat("x", 1000))
		s := fmt.Sprintf(`INSERT INTO kv VALUES (%d, '%s')`, k, v)
		if i >= 10 {
			s = fmt.Sprintf(`UPDATE kv SET v = '%s' WHERE k = %d`, v, k)
		}
		next := map[int]string{k: v}
		for key, val := range rows[len(rows)-1] {
			if key != k {
				next[key] = val
			}
		}
		stmts = append(stmts, s)
		rows = append(rows, next)
	}

	type capture struct {
		dir     string
		acked   int   // statements acked before the captured group
		oldSize int64 // the file's length before the step
	}
	var caps []capture
	acked, size := 0, walEnd(t, db.WALPath())
	db.dur.log.SetSyncHook(func(f *os.File) error {
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		if fi.Size() != size {
			c := capture{filepath.Join(base, fmt.Sprintf("step-%d", len(caps))), acked, size}
			if err := chaos.CopyDir(dir, c.dir); err != nil {
				return err
			}
			caps = append(caps, c)
			size = fi.Size()
		}
		return f.Sync()
	})
	for _, s := range stmts {
		if len(caps) == 2 {
			break
		}
		if _, err := db.Execute(s); err != nil {
			t.Fatalf("statement %d: %v", acked, err)
		}
		acked++
	}
	if len(caps) != 2 {
		t.Fatalf("%d statements grew the log %d times, want 2", acked, len(caps))
	}

	work := filepath.Join(base, "work")
	for _, c := range caps {
		buf, err := os.ReadFile(filepath.Join(c.dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		b := wal.Boundaries(buf)
		groupOff := b[len(b)-2] // the captured group is its last record
		if end := b[len(b)-1]; end <= c.oldSize {
			t.Fatalf("step after %d statements: the captured group [%d, %d) does not pass the old length %d", c.acked, groupOff, end, c.oldSize)
		}
		for _, form := range []struct {
			name   string
			damage func(string) error
			want   int
		}{
			{"length-lost", func(p string) error { return chaos.TruncateAt(p, c.oldSize) }, c.acked},
			{"data-lost", func(p string) error { return chaos.ZeroFrom(p, groupOff) }, c.acked},
			{"both-landed", func(string) error { return nil }, c.acked + 1},
		} {
			label := fmt.Sprintf("step after %d statements, %s", c.acked, form.name)
			os.RemoveAll(work)
			if err := chaos.CopyDir(c.dir, work); err != nil {
				t.Fatal(err)
			}
			if err := form.damage(filepath.Join(work, walName)); err != nil {
				t.Fatal(err)
			}
			rdb, err := Open(Config{Seed: crashSeed, DataDir: work})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			if qerr := rdb.QuarantineError(); qerr != nil {
				t.Fatalf("%s: quarantined: %v", label, qerr)
			}
			if got := rdb.WALNextSeq(); got != uint64(form.want) {
				t.Fatalf("%s: seq %d, want %d", label, got, form.want)
			}
			if err := rdb.Memory().VerifyAll(); err != nil {
				t.Fatalf("%s: VerifyAll: %v", label, err)
			}
			var want []string
			if rows[form.want] != nil {
				want = []string{}
				for k, v := range rows[form.want] {
					want = append(want, fmt.Sprintf("%d|%s", k, v))
				}
				sort.Strings(want)
			}
			if got := tableRows(t, rdb); !sameRows(got, want) {
				t.Fatalf("%s: recovered %d rows, want %d", label, len(got), len(want))
			}
			rdb.Close()
		}
	}
}

// TestMidLogBitFlipQuarantines: an in-place bit flip inside the WAL body
// — intact records behind it — is tamper, and the §5.1 containment
// posture applies: the instance opens, answers health checks, and fences
// every statement with ErrQuarantined.
func TestMidLogBitFlipQuarantines(t *testing.T) {
	stmts, _ := crashWorkload(40)
	dir := t.TempDir()
	boundaries, walName := runDurableWorkload(t, dir, Config{Seed: crashSeed}, stmts)

	// Flip one bit inside the first quarter of the log's record area.
	off := boundaries[0] + (boundaries[len(boundaries)-1]-boundaries[0])/4
	if err := chaos.FlipBit(filepath.Join(dir, walName), off, 3); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatalf("tampered open should quarantine, not error: %v", err)
	}
	defer db.Close()
	if qerr := db.QuarantineError(); qerr == nil {
		t.Fatal("bit-flipped WAL not quarantined")
	}
	if _, err := db.Execute(`SELECT k FROM kv`); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("statement on quarantined recovery: %v", err)
	}
	if _, err := db.Execute(`INSERT INTO kv VALUES (7, 'x')`); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("write on quarantined recovery: %v", err)
	}
}
