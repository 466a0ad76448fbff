package core

// The crash-point matrix: the headline proof that the authenticated WAL
// delivers exactly-the-committed-prefix recovery. Concurrent writers run
// scripted statements against a durable database; then, for every record
// boundary and every mid-record offset, a copy of the data directory is
// damaged the way a crash would damage it (clean truncation, torn
// half-synced tail) and recovered. The recovered image must equal an
// in-memory oracle that executed exactly the committed prefix — same
// rows, same WAL sequence number, same resident RSWS checksum (the oracle
// shares the deterministic Seed, so protected-op histories coincide) —
// or, for torn writes whose garbage is indistinguishable from tamper,
// land in quarantine. Zero acked-write loss, zero unacked resurrection,
// nothing in between.
//
// One write+fsync lands a whole commit group, so per-ack file sizes do not
// fall on record boundaries and the acked order is not the on-disk order.
// Both are derived from the log itself: wal.Boundaries scans the pristine
// file's length prefixes for record extents, and the committed statement
// order is the record order recovered from a copy (wal.Open may truncate
// torn tails in place, so the pristine file is never opened directly).
// Kill points inside a half-synced group are the interior record
// boundaries and midpoints of that group's extent.

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

// runDurableWorkload executes stmts against a fresh durable database in
// dir and returns the WAL size after every statement: boundaries[k] is
// the log's byte size once exactly k statements are committed
// (boundaries[0] is the header).
func runDurableWorkload(t *testing.T, dir string, cfg Config, stmts []string) (boundaries []int64, walName string) {
	t.Helper()
	cfg.DataDir = dir
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	size, err := chaos.FileSize(db.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	boundaries = append(boundaries, size)
	for i, s := range stmts {
		if _, err := db.Execute(s); err != nil {
			t.Fatalf("statement %d (%s): %v", i, s, err)
		}
		size, err := chaos.FileSize(db.WALPath())
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, size)
	}
	return boundaries, filepath.Base(db.WALPath())
}

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
// half-synced writes, and requires exact committed-prefix recovery (or
// quarantine, for tears only) at each of the ~600 points.
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

	// Cut points: each boundary, and the midpoint of each record's extent.
	type cutPoint struct {
		off  int64
		torn bool // TornWriteAt instead of TruncateAt
	}
	var cuts []cutPoint
	for i := range boundaries {
		cuts = append(cuts, cutPoint{boundaries[i], false})
		cuts = append(cuts, cutPoint{boundaries[i], true})
		if i+1 < len(boundaries) {
			cuts = append(cuts, cutPoint{(boundaries[i] + boundaries[i+1]) / 2, false})
		}
	}
	// Header damage: a crash during the very first fsync.
	cuts = append(cuts, cutPoint{0, false}, cutPoint{boundaries[0] / 2, false})
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].off < cuts[j].off })

	o := newOracle(t, stmts)
	work := filepath.Join(base, "work")
	for _, c := range cuts {
		kind := "truncate"
		if c.torn {
			kind = "tear"
		}
		label := fmt.Sprintf("%s@%d", kind, c.off)
		os.RemoveAll(work)
		if err := chaos.CopyDir(pristine, work); err != nil {
			t.Fatal(err)
		}
		walFile := filepath.Join(work, walName)
		var err error
		if c.torn {
			err = chaos.TornWriteAt(walFile, c.off)
		} else {
			err = chaos.TruncateAt(walFile, c.off)
		}
		if err != nil {
			t.Fatal(err)
		}
		k := committedPrefix(boundaries, c.off)
		recoverAndCheck(t, work, o, states[k], k, c.torn, label)
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
// final WAL generation of a workload that checkpointed several times.
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
	// boundary bookkeeping per statement: WAL file and size after ack.
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
		size, err := chaos.FileSize(db.WALPath())
		if err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{filepath.Base(db.WALPath()), size})
	}
	finalWAL := db.WALPath()
	headerSize, err := chaos.FileSize(finalWAL)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	finalName := filepath.Base(finalWAL)
	_ = headerSize

	work := filepath.Join(t.TempDir(), "work")
	check := func(cut int64, k int, label string) {
		os.RemoveAll(work)
		if err := chaos.CopyDir(pristine, work); err != nil {
			t.Fatal(err)
		}
		if err := chaos.TruncateAt(filepath.Join(work, finalName), cut); err != nil {
			t.Fatal(err)
		}
		rdb, err := Open(Config{Seed: crashSeed, DataDir: work})
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer rdb.Close()
		if qerr := rdb.QuarantineError(); qerr != nil {
			t.Fatalf("%s: quarantined: %v", label, qerr)
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
