package core

// Session-level MVCC tests: BEGIN SNAPSHOT / COMMIT through the SQL
// surface, snapshot isolation against an explicit committed-prefix
// oracle, and per-client session routing through the authenticated
// portal.

import (
	"bytes"
	"strings"
	"testing"

	"veridb/internal/client"
	"veridb/internal/record"
)

func TestSnapshotSessionStatements(t *testing.T) {
	db, err := Open(Config{Seed: 99, PlanCacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	seed(t, db)

	res, err := db.ExecuteSession("s1", `BEGIN SNAPSHOT`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "snapshot_seq" || len(res.Rows) != 1 {
		t.Fatalf("BEGIN SNAPSHOT result: %+v", res)
	}
	if res.Rows[0][0].I <= 0 {
		t.Fatalf("snapshot_seq %v", res.Rows[0][0])
	}

	// A second BEGIN without COMMIT is an error.
	if _, err := db.ExecuteSession("s1", `BEGIN SNAPSHOT`); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("double BEGIN: %v", err)
	}
	// COMMIT without a snapshot is an error too (fresh session).
	if _, err := db.ExecuteSession("s2", `COMMIT`); err == nil || !strings.Contains(err.Error(), "without a pinned snapshot") {
		t.Fatalf("bare COMMIT: %v", err)
	}
	// The pinned session is read-only, and says so before it looks for a
	// write's table: the write to a missing table compiles afresh each
	// time (a failed compile files nothing), and the DELETE's shape, run
	// first in another session, comes from the plan cache.
	exec(t, db, `DELETE FROM quote WHERE id = 99`)
	for _, q := range []string{
		`INSERT INTO quote VALUES (9, 9, 9.0)`,
		`INSERT INTO missing VALUES (9)`,
		`INSERT INTO missing VALUES (9)`,
		`DELETE FROM quote WHERE id = 1`,
	} {
		if _, err := db.ExecuteSession("s1", q); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("%s under pinned snapshot: %v", q, err)
		}
	}
	if s := db.PlanCacheStats(); s.Hits != 1 {
		t.Fatalf("plan cache %+v, want the DELETE's one hit", s)
	}

	// Writes from other sessions proceed and are invisible to s1.
	exec(t, db, `INSERT INTO quote VALUES (10, 700, 7.0)`)
	exec(t, db, `DELETE FROM quote WHERE id = 1`)
	rows, err := db.ExecuteSession("s1", `SELECT id FROM quote ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 4 || rows.Rows[0][0].I != 1 || rows.Rows[3][0].I != 4 {
		t.Fatalf("pinned read saw concurrent writes: %v", rows.Rows)
	}

	// COMMIT releases the pin; the session now reads current state.
	if _, err := db.ExecuteSession("s1", `COMMIT`); err != nil {
		t.Fatal(err)
	}
	rows, err = db.ExecuteSession("s1", `SELECT id FROM quote ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 4 || rows.Rows[0][0].I != 2 || rows.Rows[3][0].I != 10 {
		t.Fatalf("post-COMMIT read: %v", rows.Rows)
	}
	// And can write again.
	if _, err := db.ExecuteSession("s1", `INSERT INTO quote VALUES (11, 1, 1.0)`); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotVsCommittedPrefixOracle pins a snapshot, replays the same
// committed prefix into a second database (the oracle), applies divergent
// writes to the first, and asserts the pinned session's results stay
// bit-identical to the oracle's current state — rows, columns, and
// row-encoding bytes.
func TestSnapshotVsCommittedPrefixOracle(t *testing.T) {
	db := openTest(t)
	oracle, err := Open(Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	prefix := []string{
		`CREATE TABLE acct (id INT PRIMARY KEY, bal INT, INDEX(bal))`,
		`INSERT INTO acct VALUES (1,100),(2,200),(3,300),(4,400),(5,500)`,
		`UPDATE acct SET bal = bal + 5 WHERE id <= 2`,
		`DELETE FROM acct WHERE id = 4`,
	}
	for _, q := range prefix {
		exec(t, db, q)
		if _, err := oracle.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ExecuteSession("reader", `BEGIN SNAPSHOT`); err != nil {
		t.Fatal(err)
	}
	// Divergent suffix on db only.
	exec(t, db, `INSERT INTO acct VALUES (6,600),(7,700)`)
	exec(t, db, `UPDATE acct SET bal = 0 WHERE bal > 250`)
	exec(t, db, `DELETE FROM acct WHERE id = 1`)

	queries := []string{
		`SELECT id, bal FROM acct ORDER BY id`,
		`SELECT id FROM acct WHERE bal > 150 ORDER BY id`,
		`SELECT COUNT(*) AS n, SUM(bal) FROM acct`,
	}
	for _, q := range queries {
		got, err := db.ExecuteSession("reader", q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows vs oracle %d", q, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			g := record.Encode(&record.Record{Data: got.Rows[i]})
			w := record.Encode(&record.Record{Data: want.Rows[i]})
			if !bytes.Equal(g, w) {
				t.Fatalf("%s row %d: %v vs oracle %v", q, i, got.Rows[i], want.Rows[i])
			}
		}
	}
	// Both sides verify clean.
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPortalSessionsPerClient drives two authenticated clients through the
// portal: alice pins a snapshot, bob keeps writing; alice's endorsed
// results stay frozen (and repeat bit-identically modulo qid/seq) while
// bob's reflect his writes; alice's session is read-only until COMMIT.
func TestPortalSessionsPerClient(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	db.Enclave().ProvisionMACKey("alice", []byte("ka"))
	db.Enclave().ProvisionMACKey("bob", []byte("kb"))
	alice := client.New("alice", []byte("ka"))
	bob := client.New("bob", []byte("kb"))

	serve := func(c *client.Client, q string) (*struct {
		rows []record.Tuple
		err  string
	}, error) {
		req := c.NewRequest(q)
		resp, err := db.Portal().Serve(req)
		if err != nil {
			return nil, err
		}
		if verr := c.VerifyResponse(req, resp); verr != nil {
			if _, ok := verr.(*client.ServerError); !ok {
				return nil, verr
			}
		}
		return &struct {
			rows []record.Tuple
			err  string
		}{resp.Rows, resp.ErrMsg}, nil
	}

	if out, err := serve(alice, `BEGIN SNAPSHOT`); err != nil || out.err != "" {
		t.Fatalf("alice BEGIN SNAPSHOT: %v %q", err, out.err)
	}
	// Bob writes; his own reads see the write immediately.
	if out, err := serve(bob, `INSERT INTO quote VALUES (20, 999, 9.9)`); err != nil || out.err != "" {
		t.Fatalf("bob insert: %v %q", err, out.err)
	}
	if out, err := serve(bob, `SELECT id FROM quote WHERE id = 20`); err != nil || len(out.rows) != 1 {
		t.Fatalf("bob read: %v %+v", err, out)
	}
	// Alice's pinned session does not see bob's insert, twice over, with
	// bit-identical row bytes.
	var first []byte
	for i := 0; i < 2; i++ {
		out, err := serve(alice, `SELECT id, count FROM quote ORDER BY id`)
		if err != nil || out.err != "" {
			t.Fatalf("alice read %d: %v %q", i, err, out.err)
		}
		if len(out.rows) != 4 {
			t.Fatalf("alice read %d saw bob's write: %v", i, out.rows)
		}
		h := []byte{}
		for _, row := range out.rows {
			h = append(h, record.Encode(&record.Record{Data: row})...)
		}
		if first == nil {
			first = h
		} else if !bytes.Equal(first, h) {
			t.Fatalf("alice repeat read diverged")
		}
	}
	// Alice cannot write while pinned — an authenticated server error, not
	// an authorisation failure.
	out, err := serve(alice, `DELETE FROM quote WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.err, "read-only") {
		t.Fatalf("alice write under pin: %q", out.err)
	}
	// COMMIT, then alice sees bob's row and can write.
	if out, err := serve(alice, `COMMIT`); err != nil || out.err != "" {
		t.Fatalf("alice COMMIT: %v %q", err, out.err)
	}
	if out, err := serve(alice, `SELECT id FROM quote WHERE id = 20`); err != nil || out.err != "" || len(out.rows) != 1 {
		t.Fatalf("alice post-COMMIT read: %v %+v", err, out)
	}
	if out, err := serve(alice, `DELETE FROM quote WHERE id = 20`); err != nil || out.err != "" {
		t.Fatalf("alice post-COMMIT delete: %v %q", err, out.err)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
