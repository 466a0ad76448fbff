package core

// PREPARE/EXECUTE round trips: an EXECUTE runs as its template with each
// argument in place of its ? as one literal node; arity and registry
// errors, placeholder scoping, per-client registries, a negative key
// argument kept a key lookup, and — the durable case — WAL replay of
// EXECUTEd writes, which are logged as the template's text with each
// argument in sql.FormatValue's form, so recovery is independent of the
// session's prepared-statement registry (lost on restart by design) and
// gets back exactly the values written, those no literal spells included.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestPrepareExecuteRoundTrip(t *testing.T) {
	db := openTest(t)
	seed(t, db)

	exec(t, db, `PREPARE getq AS SELECT id FROM quote WHERE count = ?`)
	res := exec(t, db, `EXECUTE getq (100)`)
	if len(res.Rows) != 2 {
		t.Fatalf("EXECUTE getq (100): %v", res.Rows)
	}
	res = exec(t, db, `EXECUTE getq (500)`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("EXECUTE getq (500): %v", res.Rows)
	}

	// Wrong arity, unknown name, and placeholders outside PREPARE are
	// all statement-level errors, not silent misbehavior.
	if _, err := db.Execute(`EXECUTE getq ()`); err == nil || !strings.Contains(err.Error(), "arguments") {
		t.Fatalf("arity mismatch returned %v", err)
	}
	if _, err := db.Execute(`EXECUTE nosuch (1)`); err == nil {
		t.Fatal("EXECUTE of unknown prepared statement succeeded")
	}
	if _, err := db.Execute(`SELECT id FROM quote WHERE count = ?`); err == nil {
		t.Fatal("bare ? outside PREPARE parsed")
	}

	exec(t, db, `DEALLOCATE getq`)
	if _, err := db.Execute(`EXECUTE getq (100)`); err == nil {
		t.Fatal("EXECUTE after DEALLOCATE succeeded")
	}
	if _, err := db.Execute(`DEALLOCATE getq`); err == nil {
		t.Fatal("double DEALLOCATE succeeded")
	}
}

func TestPrepareExecuteDurableReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir, PlanCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, f FLOAT, b BOOL)`)
	exec(t, db, `PREPARE ins AS INSERT INTO kv VALUES (?, ?, ?, ?)`)
	// Values chosen to stress the WAL text rendering: embedded quotes
	// must re-escape, integral floats must stay floats through a
	// re-parse, tiny floats must not render in exponent notation.
	exec(t, db, `EXECUTE ins (1, 'it''s', 2.0, TRUE)`)
	exec(t, db, `EXECUTE ins (2, '', 0.0000001, FALSE)`)
	exec(t, db, `EXECUTE ins (3, 'plain', -4.5, TRUE)`)
	// The shape of the first EXECUTE again (-4.5 is one FLOAT value, not
	// a minus sign and a literal): plan-cache hits, whose WAL text must
	// carry the arguments bound now, not the instance's first.
	exec(t, db, `EXECUTE ins (4, 'again', 8.25, TRUE)`)
	if s := db.PlanCacheStats(); s.Hits != 2 {
		t.Fatalf("repeated EXECUTE shape: %+v, want two hits", s)
	}
	want := exec(t, db, `SELECT k, v, f, b FROM kv`).Rows
	db.Close()

	re, err := Open(Config{Seed: crashSeed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if qerr := re.QuarantineError(); qerr != nil {
		t.Fatalf("recovered DB quarantined: %v", qerr)
	}
	// CREATE + four logged EXECUTEs; the PREPARE itself is never logged.
	if got := re.WALNextSeq(); got != 5 {
		t.Fatalf("recovered WAL seq %d, want 5", got)
	}
	got := exec(t, re, `SELECT k, v, f, b FROM kv`).Rows
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Equal(want[i][c]) {
				t.Fatalf("row %d col %d: recovered %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	if got[0][1].S != "it's" {
		t.Fatalf("quote escaping lost through replay: %q", got[0][1].S)
	}
	if err := re.Memory().VerifyAll(); err != nil {
		t.Fatalf("VerifyAll after replay: %v", err)
	}
	// The registry is session state: re-prepare after restart.
	if _, err := re.Execute(`EXECUTE ins (9, 'x', 1.0, TRUE)`); err == nil {
		t.Fatal("prepared statement survived a restart")
	}
}

// TestPreparedStatementsArePerClient: a PREPARE registry is one client's.
// Two clients prepare different templates under one name; each EXECUTE
// runs its own client's template, through cache hits on an instance the
// other client bound included, and one client's DEALLOCATE removes only
// its own statement.
func TestPreparedStatementsArePerClient(t *testing.T) {
	db, err := Open(Config{Seed: 99, PlanCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	seed(t, db)
	run := func(client, q string) ([]string, error) {
		t.Helper()
		res, err := db.ExecuteSession(client, q)
		if err != nil {
			return nil, err
		}
		return res.Columns, nil
	}
	want := func(client, q string, col ...string) {
		t.Helper()
		cols, err := run(client, q)
		if err != nil {
			t.Fatalf("%s: %s: %v", client, q, err)
		}
		if fmt.Sprint(cols) != fmt.Sprint(col) {
			t.Fatalf("%s: %s answered columns %v, want %v", client, q, cols, col)
		}
	}
	want("alice", `PREPARE p AS SELECT id FROM quote WHERE id = ?`)
	want("bob", `PREPARE p AS SELECT price FROM quote WHERE id = ?`)
	for i := 1; i <= 3; i++ {
		want("alice", fmt.Sprintf(`EXECUTE p (%d)`, i), "id")
		want("bob", fmt.Sprintf(`EXECUTE p (%d)`, i), "price")
	}
	want("bob", `DEALLOCATE p`)
	if _, err := run("bob", `EXECUTE p (1)`); err == nil {
		t.Fatal("bob's EXECUTE after bob's DEALLOCATE succeeded")
	}
	want("alice", `EXECUTE p (1)`, "id")
	if _, err := run("bob", `DEALLOCATE p`); err == nil {
		t.Fatal("bob deallocated alice's statement")
	}
	want("alice", `DEALLOCATE p`)
}

// TestExecuteEdgeValuesSurviveReopen: EXECUTEd writes of the values whose
// decimal text is no literal — −2⁶³, +Inf, −Inf, NaN — by INSERT and by
// UPDATE, a key of −2⁶³ in a WHERE included, are logged as text that
// replays to exactly those values: the reopened database is not
// quarantined and holds the rows written.
func TestExecuteEdgeValuesSurviveReopen(t *testing.T) {
	maxFloat := strconv.FormatFloat(math.MaxFloat64, 'f', 1, 64)
	minInt := `-9223372036854775807 - 1`
	inf, negInf, nan := maxFloat+` * 10.0`, `-`+maxFloat+` * 10.0`, maxFloat+` * 10.0 * 0.0`
	dir := t.TempDir()
	db, err := Open(Config{Seed: crashSeed, DataDir: dir, PlanCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, i INT, f FLOAT)`)
	exec(t, db, `PREPARE ins AS INSERT INTO kv VALUES (?, ?, ?)`)
	exec(t, db, `PREPARE upd AS UPDATE kv SET i = ?, f = ? WHERE k = ?`)
	for _, q := range []string{
		`EXECUTE ins (1, ` + minInt + `, ` + inf + `)`,
		`EXECUTE ins (2, 0, ` + negInf + `)`,
		`EXECUTE ins (3, 7, ` + nan + `)`,
		`EXECUTE ins (` + minInt + `, 1, 0.5)`,
		`EXECUTE ins (5, 2, 2.5)`,
		`EXECUTE upd (` + minInt + `, ` + nan + `, 5)`,
		`EXECUTE upd (3, ` + negInf + `, ` + minInt + `)`,
		`EXECUTE upd (4, ` + inf + `, 2)`,
	} {
		exec(t, db, q)
	}
	const all = `SELECT k, i, f FROM kv ORDER BY k`
	want := exec(t, db, all).Rows
	if len(want) != 5 || want[0][0].I != math.MinInt64 || !math.IsNaN(want[4][2].F) || !math.IsInf(want[0][2].F, -1) {
		t.Fatalf("rows written: %v", want)
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
	got := exec(t, re, all).Rows
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for r := range want {
		for c := range want[r] {
			w, g := want[r][c], got[r][c]
			if !g.Equal(w) && !(math.IsNaN(g.F) && math.IsNaN(w.F) && g.Type == w.Type) {
				t.Fatalf("row %d col %d: recovered %v, want %v", r, c, g, w)
			}
		}
	}
}

// TestExecuteNegativeKeyIsKeyLookup: a negative argument is one literal
// node, not a negation, so EXECUTE of a key lookup with −5 reads what it
// reads with 5.
func TestExecuteNegativeKeyIsKeyLookup(t *testing.T) {
	db := openTest(t)
	exec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, v INT)`)
	exec(t, db, `INSERT INTO kv VALUES (-5, 1), (5, 2)`)
	for k := 10; k < 200; k++ {
		exec(t, db, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 0)`, k))
	}
	exec(t, db, `PREPARE get AS SELECT v FROM kv WHERE id = ?`)
	ops := func(arg, want string) uint64 {
		t.Helper()
		before := db.Memory().Stats().Ops
		if rows := exec(t, db, `EXECUTE get (`+arg+`)`).Rows; fmt.Sprint(rows) != want {
			t.Fatalf("EXECUTE get (%s): %v, want %s", arg, rows, want)
		}
		return db.Memory().Stats().Ops - before
	}
	if neg, pos := ops(`-5`, `[[1]]`), ops(`5`, `[[2]]`); neg != pos {
		t.Fatalf("EXECUTE with -5 did %d protected operations, with 5 %d", neg, pos)
	}
}

// BenchmarkExecuteHit is the in-process cost of a plan-cache hit through
// db.Execute: a point read sent as EXECUTE of a prepared template, and
// the same read written with its literal.
func BenchmarkExecuteHit(b *testing.B) {
	db, err := Open(Config{Seed: 99, PlanCacheSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	exec(b, db, `CREATE TABLE kv (id INT PRIMARY KEY, v INT)`)
	for k := 0; k < 100; k++ {
		exec(b, db, fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, k, 2*k))
	}
	exec(b, db, `PREPARE get AS SELECT v FROM kv WHERE id = ?`)
	for _, form := range []struct{ name, format string }{
		{"stmt=execute", `EXECUTE get (%d)`},
		{"stmt=select", `SELECT v FROM kv WHERE id = %d`},
	} {
		qs := make([]string, 100)
		for k := range qs {
			qs[k] = fmt.Sprintf(form.format, k)
		}
		exec(b, db, qs[0])
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Execute(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
