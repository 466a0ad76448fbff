package core

// PREPARE/EXECUTE round trips: parameter binding through the portal
// statement path, arity and registry errors, placeholder scoping, and —
// the durable case — WAL replay of EXECUTEd mutations, which are logged
// as rendered bound text so recovery is independent of the session's
// prepared-statement registry (lost on restart by design).

import (
	"fmt"
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
	// The shape of the first EXECUTE again: a plan-cache hit, whose WAL
	// text must be rendered from the arguments bound now, not the
	// instance's first.
	exec(t, db, `EXECUTE ins (4, 'again', 8.25, TRUE)`)
	if s := db.PlanCacheStats(); s.Hits != 1 {
		t.Fatalf("repeated EXECUTE shape: %+v, want one hit", s)
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
